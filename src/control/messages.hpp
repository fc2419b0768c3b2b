// gridbw/control/messages.hpp
//
// The reservation protocol's message vocabulary (§5.4: "this bandwidth
// sharing approach can reutilize most of the RSVP protocol features (client
// side and RSVP request format)"). Four message kinds travel the overlay:
//
//   RESV   client -> ingress router   reservation request (the Request)
//   GRANT  ingress router -> client   assigned window + rate
//   REJECT ingress router -> client   admission denied
//   TEAR   ingress router -> mesh     reservation released (completion)
//
// Messages serialize to a compact single-line wire format so the control
// plane can be traced, replayed, and tested byte-for-byte:
//
//   RESV|id=42|in=3|out=7|ts=10.5|tf=110.5|vol=5e10|max=1e9
//   GRANT|id=42|start=12.0|bw=8e8
//   REJECT|id=42|reason=egress-full
//   TEAR|id=42|egress=7|bw=8e8

#pragma once

#include <optional>
#include <string>
#include <variant>

#include "core/request.hpp"

namespace gridbw::control {

struct ResvMessage {
  Request request;
  friend bool operator==(const ResvMessage&, const ResvMessage&);
};

struct GrantMessage {
  RequestId id{0};
  TimePoint start;
  Bandwidth bw;
  friend bool operator==(const GrantMessage&, const GrantMessage&) = default;
};

struct RejectMessage {
  RequestId id{0};
  std::string reason;
  friend bool operator==(const RejectMessage&, const RejectMessage&) = default;
};

struct TearMessage {
  RequestId id{0};
  EgressId egress{};
  Bandwidth bw;
  friend bool operator==(const TearMessage&, const TearMessage&) = default;
};

using Message = std::variant<ResvMessage, GrantMessage, RejectMessage, TearMessage>;

/// Serializes a message to its one-line wire form (no trailing newline).
[[nodiscard]] std::string serialize(const Message& message);

/// Parses a wire line. Returns nullopt on any malformed input (unknown
/// kind, missing/duplicate/unknown fields, an id or port that is not a
/// whole non-negative integer, a number that is not finite).
[[nodiscard]] std::optional<Message> parse_message(const std::string& line);

}  // namespace gridbw::control
