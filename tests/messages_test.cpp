// Tests for the RSVP-like message wire format.

#include <gtest/gtest.h>

#include <cmath>

#include "control/messages.hpp"
#include "util/random.hpp"

namespace gridbw::control {
namespace {

Request sample_request() {
  return RequestBuilder{42}
      .from(IngressId{3})
      .to(EgressId{7})
      .window(TimePoint::at_seconds(10.5), TimePoint::at_seconds(110.5))
      .volume(Volume::gigabytes(50))
      .max_rate(Bandwidth::gigabytes_per_second(1))
      .build();
}

TEST(Messages, ResvRoundTrip) {
  const Message original{ResvMessage{sample_request()}};
  const auto parsed = parse_message(serialize(original));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(std::holds_alternative<ResvMessage>(*parsed));
  EXPECT_EQ(std::get<ResvMessage>(*parsed), std::get<ResvMessage>(original));
}

TEST(Messages, ResvRoundTripIsExact) {
  // Numbers with 12 to 17 significant digits, past the 9 a fixed-precision
  // format keeps: every field must come back bit for bit.
  const Request request = RequestBuilder{43}
                              .from(IngressId{1})
                              .to(EgressId{2})
                              .window(TimePoint::at_seconds(1234.56789012),
                                      TimePoint::at_seconds(0.1 + 2345.678901234567))
                              .volume(Volume::bytes(1.0e12 / 3.0))
                              .max_rate(Bandwidth::bytes_per_second(987654321.123456789))
                              .build();
  const auto parsed = parse_message(serialize(Message{ResvMessage{request}}));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(std::holds_alternative<ResvMessage>(*parsed));
  const Request& back = std::get<ResvMessage>(*parsed).request;
  EXPECT_EQ(back.release.to_seconds(), request.release.to_seconds());
  EXPECT_EQ(back.deadline.to_seconds(), request.deadline.to_seconds());
  EXPECT_EQ(back.volume.to_bytes(), request.volume.to_bytes());
  EXPECT_EQ(back.max_rate.to_bytes_per_second(), request.max_rate.to_bytes_per_second());

  // GRANT and TEAR compare exactly; draw their numbers over many magnitudes.
  Rng rng{20};
  for (int k = 0; k < 1000; ++k) {
    const double start = rng.uniform(0.0, 1.0) * std::pow(10.0, rng.uniform(-6.0, 9.0));
    const double bw = rng.uniform(0.0, 1.0) * std::pow(10.0, rng.uniform(0.0, 12.0));
    const auto id = static_cast<RequestId>(k);
    const Message grant{
        GrantMessage{id, TimePoint::at_seconds(start), Bandwidth::bytes_per_second(bw)}};
    const Message tear{TearMessage{id, EgressId{1}, Bandwidth::bytes_per_second(bw)}};
    for (const Message& m : {grant, tear}) {
      const auto parsed_back = parse_message(serialize(m));
      ASSERT_TRUE(parsed_back.has_value()) << serialize(m);
      EXPECT_TRUE(*parsed_back == m) << serialize(m);
    }
  }
}

TEST(Messages, GrantRoundTrip) {
  const Message original{GrantMessage{42, TimePoint::at_seconds(12.25),
                                      Bandwidth::megabytes_per_second(800)}};
  const auto parsed = parse_message(serialize(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(std::get<GrantMessage>(*parsed), std::get<GrantMessage>(original));
}

TEST(Messages, RejectRoundTrip) {
  const Message original{RejectMessage{7, "egress-full"}};
  const auto parsed = parse_message(serialize(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(std::get<RejectMessage>(*parsed), std::get<RejectMessage>(original));
}

TEST(Messages, TearRoundTrip) {
  const Message original{
      TearMessage{42, EgressId{7}, Bandwidth::megabytes_per_second(800)}};
  const auto parsed = parse_message(serialize(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(std::get<TearMessage>(*parsed), std::get<TearMessage>(original));
}

TEST(Messages, SerializedFormIsStable) {
  const Message grant{GrantMessage{5, TimePoint::at_seconds(2),
                                   Bandwidth::bytes_per_second(1e9)}};
  EXPECT_EQ(serialize(grant), "GRANT|id=5|start=2|bw=1e+09");
  const Message reject{RejectMessage{5, "ingress-full"}};
  EXPECT_EQ(serialize(reject), "REJECT|id=5|reason=ingress-full");
}

TEST(Messages, RejectsUnknownKind) {
  EXPECT_FALSE(parse_message("NOPE|id=1").has_value());
  EXPECT_FALSE(parse_message("").has_value());
  EXPECT_FALSE(parse_message("|id=1").has_value());
}

TEST(Messages, RejectsMissingFields) {
  EXPECT_FALSE(parse_message("GRANT|id=5|start=2").has_value());  // no bw
  EXPECT_FALSE(parse_message("TEAR|id=5|bw=1").has_value());      // no egress
  EXPECT_FALSE(parse_message("REJECT|id=5").has_value());         // no reason
}

TEST(Messages, RejectsUnknownAndDuplicateFields) {
  EXPECT_FALSE(parse_message("GRANT|id=5|start=2|bw=1|junk=9").has_value());
  EXPECT_FALSE(parse_message("GRANT|id=5|id=6|start=2|bw=1").has_value());
}

TEST(Messages, RejectsNonNumericValues) {
  EXPECT_FALSE(parse_message("GRANT|id=abc|start=2|bw=1").has_value());
  EXPECT_FALSE(parse_message("GRANT|id=5|start=2x|bw=1").has_value());
}

TEST(Messages, IdsAndPortsAreWholeNonNegativeIntegers) {
  // Once read through a double and cast: UB for 1e300, -1 and nan, and a
  // silent truncation for 5.5.
  for (const char* id : {"1e300", "-1", "nan", "5.5", "1e3", "-0", "18446744073709551616"}) {
    EXPECT_FALSE(parse_message(std::string{"GRANT|id="} + id + "|start=2|bw=1").has_value())
        << id;
    EXPECT_FALSE(parse_message(std::string{"REJECT|id="} + id + "|reason=x").has_value())
        << id;
  }
  for (const char* port : {"-1", "nan", "1e300", "2.5"}) {
    const std::string p{port};
    EXPECT_FALSE(
        parse_message("RESV|id=1|in=" + p + "|out=0|ts=0|tf=10|vol=1e9|max=1e9")
            .has_value())
        << port;
    EXPECT_FALSE(
        parse_message("RESV|id=1|in=0|out=" + p + "|ts=0|tf=10|vol=1e9|max=1e9")
            .has_value())
        << port;
    EXPECT_FALSE(parse_message("TEAR|id=1|egress=" + p + "|bw=1").has_value()) << port;
  }
}

TEST(Messages, IdsAbove2To53RoundTrip) {
  for (const RequestId id : {RequestId{9007199254740993ULL},  // 2^53 + 1
                             RequestId{18446744073709551615ULL}}) {
    const Message grant{GrantMessage{id, TimePoint::at_seconds(1),
                                     Bandwidth::bytes_per_second(5)}};
    const auto parsed = parse_message(serialize(grant));
    ASSERT_TRUE(parsed.has_value()) << id;
    EXPECT_EQ(std::get<GrantMessage>(*parsed).id, id);

    Request r = sample_request();
    r.id = id;
    const auto resv = parse_message(serialize(Message{ResvMessage{r}}));
    ASSERT_TRUE(resv.has_value()) << id;
    EXPECT_EQ(std::get<ResvMessage>(*resv).request.id, id);
  }
}

TEST(Messages, RejectsNonFiniteNumbers) {
  EXPECT_FALSE(parse_message("GRANT|id=5|start=2|bw=inf").has_value());
  EXPECT_FALSE(parse_message("GRANT|id=5|start=nan|bw=1").has_value());
  EXPECT_FALSE(parse_message("TEAR|id=5|egress=1|bw=-inf").has_value());
  EXPECT_FALSE(
      parse_message("RESV|id=1|in=0|out=0|ts=0|tf=inf|vol=1e9|max=1e9").has_value());
  EXPECT_FALSE(
      parse_message("RESV|id=1|in=0|out=0|ts=-inf|tf=10|vol=1e9|max=1e9").has_value());
}

TEST(Messages, RejectsIllFormedResvPayload) {
  // deadline before release
  EXPECT_FALSE(
      parse_message("RESV|id=1|in=0|out=0|ts=10|tf=5|vol=1e9|max=1e9").has_value());
  // zero volume
  EXPECT_FALSE(
      parse_message("RESV|id=1|in=0|out=0|ts=0|tf=10|vol=0|max=1e9").has_value());
}

TEST(Messages, ParsesHandWrittenResv) {
  const auto parsed =
      parse_message("RESV|id=9|in=2|out=4|ts=1.5|tf=21.5|vol=2e9|max=1e8");
  ASSERT_TRUE(parsed.has_value());
  const Request& r = std::get<ResvMessage>(*parsed).request;
  EXPECT_EQ(r.id, 9u);
  EXPECT_EQ(r.ingress.value, 2u);
  EXPECT_EQ(r.egress.value, 4u);
  EXPECT_DOUBLE_EQ(r.volume.to_bytes(), 2e9);
  EXPECT_DOUBLE_EQ(r.min_rate().to_bytes_per_second(), 1e8);
}

}  // namespace
}  // namespace gridbw::control
