#include "obs/trace_sink.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <stdexcept>

#include "util/parse.hpp"

namespace gridbw::obs {
namespace {

/// Minimal RFC 8259 escaping for annotation strings (names, seeds).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string meta_line(std::string_view key, std::string_view value) {
  return "{\"event\":\"meta\",\"key\":\"" + json_escape(key) + "\",\"value\":\"" +
         json_escape(value) + "\"}";
}

/// The wall-clock stamp is the one sanctioned real-time read in the library
/// (see gridbw-lint's wall-clock rule, which allowlists src/obs/). It is
/// opt-in precisely because it breaks byte-identical replay.
std::string wallclock_iso8601() {
  const std::time_t now = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm utc{};
  gmtime_r(&now, &utc);
  std::array<char, 32> buf{};
  std::strftime(buf.data(), buf.size(), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return std::string{buf.data()};
}

}  // namespace

// ---------------------------------------------------------------------------
// MemorySink
// ---------------------------------------------------------------------------

void MemorySink::record(const AdmissionEvent& event) {
  std::lock_guard lock{mutex_};
  events_.push_back(event);
}

void MemorySink::annotate(std::string_view key, std::string_view value) {
  std::lock_guard lock{mutex_};
  annotations_.emplace_back(std::string{key}, std::string{value});
}

std::size_t MemorySink::count(EventKind kind) const {
  std::lock_guard lock{mutex_};
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const AdmissionEvent& e) { return e.kind == kind; }));
}

std::size_t MemorySink::count(RejectReason reason) const {
  std::lock_guard lock{mutex_};
  return static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(), [reason](const AdmissionEvent& e) {
        return e.kind == EventKind::kRejected && e.reason == reason;
      }));
}

void MemorySink::clear() {
  std::lock_guard lock{mutex_};
  events_.clear();
  annotations_.clear();
}

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

JsonlSink::JsonlSink(std::ostream& out, const Options& options) : out_{&out} {
  if (options.stamp_wallclock) write_line(meta_line("wallclock", wallclock_iso8601()));
}

JsonlSink::JsonlSink(const std::string& path, const Options& options)
    : owned_{path}, out_{&owned_} {
  if (!owned_.is_open()) {
    throw std::runtime_error{"JsonlSink: cannot open " + path};
  }
  if (options.stamp_wallclock) write_line(meta_line("wallclock", wallclock_iso8601()));
}

JsonlSink::~JsonlSink() { out_->flush(); }

std::string JsonlSink::format(const AdmissionEvent& event) {
  std::string line = "{\"event\":\"" + to_string(event.kind) + "\"";
  line += ",\"req\":" + std::to_string(event.request);
  line += ",\"t\":" + format_shortest(event.when.to_seconds());
  switch (event.kind) {
    case EventKind::kSubmitted:
      line += ",\"attempt\":" + std::to_string(event.attempt);
      break;
    case EventKind::kAccepted:
      line += ",\"attempt\":" + std::to_string(event.attempt);
      line += ",\"sigma\":" + format_shortest(event.sigma.to_seconds());
      line += ",\"bw\":" + format_shortest(event.bw.to_bytes_per_second());
      break;
    case EventKind::kRejected:
      line += ",\"attempt\":" + std::to_string(event.attempt);
      line += ",\"reason\":\"" + to_string(event.reason) + "\"";
      break;
    case EventKind::kRetried:
      line += ",\"attempt\":" + std::to_string(event.attempt);
      line += ",\"backoff\":" + format_shortest(event.backoff.to_seconds());
      break;
    case EventKind::kPreempted:
      break;
    case EventKind::kReclaimed:
      line += ",\"bw\":" + format_shortest(event.bw.to_bytes_per_second());
      break;
    case EventKind::kExpired:
      line += ",\"bw\":" + format_shortest(event.bw.to_bytes_per_second());
      break;
    case EventKind::kRevoked:
      line += ",\"reason\":\"" + to_string(event.reason) + "\"";
      line += ",\"bw\":" + format_shortest(event.bw.to_bytes_per_second());
      break;
    case EventKind::kReshaped:
      line += ",\"bw\":" + format_shortest(event.bw.to_bytes_per_second());
      break;
  }
  line += "}";
  return line;
}

void JsonlSink::record(const AdmissionEvent& event) { write_line(format(event)); }

void JsonlSink::annotate(std::string_view key, std::string_view value) {
  write_line(meta_line(key, value));
}

void JsonlSink::flush() {
  std::lock_guard lock{mutex_};
  out_->flush();
}

void JsonlSink::write_line(const std::string& line) {
  std::lock_guard lock{mutex_};
  *out_ << line << '\n';
}

}  // namespace gridbw::obs
