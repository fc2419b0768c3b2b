#include "control/messages.hpp"

#include <cstdint>
#include <map>
#include <sstream>

#include "util/parse.hpp"

namespace gridbw::control {
namespace {

/// Splits "KIND|k=v|k=v" into the kind and a field map; nullopt on
/// malformed or duplicate fields.
std::optional<std::pair<std::string, std::map<std::string, std::string>>> split(
    const std::string& line) {
  std::stringstream ss{line};
  std::string kind;
  if (!std::getline(ss, kind, '|') || kind.empty()) return std::nullopt;
  std::map<std::string, std::string> fields;
  std::string part;
  while (std::getline(ss, part, '|')) {
    const auto eq = part.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    const std::string key = part.substr(0, eq);
    if (!fields.emplace(key, part.substr(eq + 1)).second) return std::nullopt;
  }
  return std::make_pair(kind, std::move(fields));
}

class FieldReader {
 public:
  explicit FieldReader(const std::map<std::string, std::string>& fields)
      : fields_{fields} {}

  /// A finite number (util/parse.hpp's parse_double).
  std::optional<double> number(const std::string& key) {
    return parsed(key, parse_double);
  }

  /// An id or port index: a whole non-negative integer, never through a
  /// double (every 64-bit id round-trips; -1, 1e300 and nan are malformed).
  std::optional<std::uint64_t> count(const std::string& key) {
    return parsed(key, parse_uint);
  }

  std::optional<std::string> text(const std::string& key) {
    const auto it = fields_.find(key);
    if (it == fields_.end()) return std::nullopt;
    ++consumed_;
    return it->second;
  }

  /// True when every present field was consumed (no unknown fields).
  [[nodiscard]] bool exhausted() const { return consumed_ == fields_.size(); }

 private:
  template <typename T>
  std::optional<T> parsed(const std::string& key,
                          T (*parse)(const std::string&, const std::string&)) {
    const auto it = fields_.find(key);
    if (it == fields_.end()) return std::nullopt;
    ++consumed_;
    try {
      return parse(key, it->second);
    } catch (const ValueError&) {
      return std::nullopt;
    }
  }

  const std::map<std::string, std::string>& fields_;
  std::size_t consumed_{0};
};

}  // namespace

bool operator==(const ResvMessage& a, const ResvMessage& b) {
  return a.request.id == b.request.id && a.request.ingress == b.request.ingress &&
         a.request.egress == b.request.egress && a.request.release == b.request.release &&
         a.request.deadline == b.request.deadline &&
         approx_eq(a.request.volume.to_bytes(), b.request.volume.to_bytes()) &&
         approx_eq(a.request.max_rate.to_bytes_per_second(),
                   b.request.max_rate.to_bytes_per_second());
}

std::string serialize(const Message& message) {
  return std::visit(
      [](const auto& m) -> std::string {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ResvMessage>) {
          const Request& r = m.request;
          return "RESV|id=" + std::to_string(r.id) +
                 "|in=" + std::to_string(r.ingress.value) +
                 "|out=" + std::to_string(r.egress.value) +
                 "|ts=" + format_shortest(r.release.to_seconds()) +
                 "|tf=" + format_shortest(r.deadline.to_seconds()) +
                 "|vol=" + format_shortest(r.volume.to_bytes()) +
                 "|max=" + format_shortest(r.max_rate.to_bytes_per_second());
        } else if constexpr (std::is_same_v<T, GrantMessage>) {
          return "GRANT|id=" + std::to_string(m.id) +
                 "|start=" + format_shortest(m.start.to_seconds()) +
                 "|bw=" + format_shortest(m.bw.to_bytes_per_second());
        } else if constexpr (std::is_same_v<T, RejectMessage>) {
          return "REJECT|id=" + std::to_string(m.id) + "|reason=" + m.reason;
        } else {
          return "TEAR|id=" + std::to_string(m.id) +
                 "|egress=" + std::to_string(m.egress.value) +
                 "|bw=" + format_shortest(m.bw.to_bytes_per_second());
        }
      },
      message);
}

std::optional<Message> parse_message(const std::string& line) {
  const auto parts = split(line);
  if (!parts.has_value()) return std::nullopt;
  const auto& [kind, fields] = *parts;
  FieldReader read{fields};

  if (kind == "RESV") {
    const auto id = read.count("id");
    const auto in = read.count("in");
    const auto out = read.count("out");
    const auto ts = read.number("ts");
    const auto tf = read.number("tf");
    const auto vol = read.number("vol");
    const auto max = read.number("max");
    if (!id || !in || !out || !ts || !tf || !vol || !max || !read.exhausted()) {
      return std::nullopt;
    }
    Request r;
    r.id = *id;
    r.ingress = IngressId{*in};
    r.egress = EgressId{*out};
    r.release = TimePoint::at_seconds(*ts);
    r.deadline = TimePoint::at_seconds(*tf);
    r.volume = Volume::bytes(*vol);
    r.max_rate = Bandwidth::bytes_per_second(*max);
    if (!r.is_well_formed()) return std::nullopt;
    return Message{ResvMessage{r}};
  }
  if (kind == "GRANT") {
    const auto id = read.count("id");
    const auto start = read.number("start");
    const auto bw = read.number("bw");
    if (!id || !start || !bw || !read.exhausted()) return std::nullopt;
    return Message{GrantMessage{*id,
                                TimePoint::at_seconds(*start),
                                Bandwidth::bytes_per_second(*bw)}};
  }
  if (kind == "REJECT") {
    const auto id = read.count("id");
    const auto reason = read.text("reason");
    if (!id || !reason || !read.exhausted()) return std::nullopt;
    return Message{RejectMessage{*id, *reason}};
  }
  if (kind == "TEAR") {
    const auto id = read.count("id");
    const auto egress = read.count("egress");
    const auto bw = read.number("bw");
    if (!id || !egress || !bw || !read.exhausted()) return std::nullopt;
    return Message{TearMessage{*id,
                               EgressId{*egress},
                               Bandwidth::bytes_per_second(*bw)}};
  }
  return std::nullopt;
}

}  // namespace gridbw::control
