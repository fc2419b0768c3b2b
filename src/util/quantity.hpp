// gridbw/util/quantity.hpp
//
// Strongly-typed physical quantities used throughout the library:
//
//   Duration   -- a span of simulated time, stored in seconds
//   TimePoint  -- an instant of simulated time (seconds from the origin)
//   Volume     -- an amount of data, stored in bytes
//   Bandwidth  -- a data rate, stored in bytes per second
//
// The types support exactly the dimensional arithmetic the bandwidth-sharing
// model needs (Volume / Duration = Bandwidth, Bandwidth * Duration = Volume,
// Volume / Bandwidth = Duration, ...) so that unit mistakes become compile
// errors instead of silently wrong simulations.
//
// All quantities are trivially copyable wrappers around a double; they are
// free abstractions.

#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace gridbw {

class Duration;
class TimePoint;
class Volume;
class Bandwidth;

/// A span of simulated time. Negative durations are representable (they
/// arise transiently in arithmetic) but most APIs require non-negative spans.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration seconds(double s) { return Duration{s}; }
  [[nodiscard]] static constexpr Duration minutes(double m) { return Duration{m * 60.0}; }
  [[nodiscard]] static constexpr Duration hours(double h) { return Duration{h * 3600.0}; }
  [[nodiscard]] static constexpr Duration days(double d) { return Duration{d * 86400.0}; }
  [[nodiscard]] static constexpr Duration zero() { return Duration{0.0}; }
  [[nodiscard]] static constexpr Duration infinity() {
    return Duration{std::numeric_limits<double>::infinity()};
  }

  [[nodiscard]] constexpr double to_seconds() const { return secs_; }
  [[nodiscard]] constexpr double to_minutes() const { return secs_ / 60.0; }
  [[nodiscard]] constexpr double to_hours() const { return secs_ / 3600.0; }

  [[nodiscard]] constexpr bool is_finite() const { return std::isfinite(secs_); }
  [[nodiscard]] constexpr bool is_positive() const { return secs_ > 0.0; }
  [[nodiscard]] constexpr bool is_negative() const { return secs_ < 0.0; }

  constexpr Duration& operator+=(Duration other) { secs_ += other.secs_; return *this; }
  constexpr Duration& operator-=(Duration other) { secs_ -= other.secs_; return *this; }
  constexpr Duration& operator*=(double k) { secs_ *= k; return *this; }
  constexpr Duration& operator/=(double k) { secs_ /= k; return *this; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.secs_ + b.secs_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.secs_ - b.secs_}; }
  friend constexpr Duration operator-(Duration a) { return Duration{-a.secs_}; }
  friend constexpr Duration operator*(Duration a, double k) { return Duration{a.secs_ * k}; }
  friend constexpr Duration operator*(double k, Duration a) { return Duration{k * a.secs_}; }
  friend constexpr Duration operator/(Duration a, double k) { return Duration{a.secs_ / k}; }
  /// Ratio of two durations is a dimensionless scalar.
  friend constexpr double operator/(Duration a, Duration b) { return a.secs_ / b.secs_; }

  friend constexpr auto operator<=>(Duration a, Duration b) = default;

 private:
  explicit constexpr Duration(double s) : secs_{s} {}
  double secs_{0.0};
};

/// An instant of simulated time, measured from an arbitrary origin (t = 0,
/// the beginning of the experiment).
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint at_seconds(double s) { return TimePoint{s}; }
  [[nodiscard]] static constexpr TimePoint origin() { return TimePoint{0.0}; }
  [[nodiscard]] static constexpr TimePoint infinity() {
    return TimePoint{std::numeric_limits<double>::infinity()};
  }

  [[nodiscard]] constexpr double to_seconds() const { return secs_; }
  [[nodiscard]] constexpr bool is_finite() const { return std::isfinite(secs_); }

  constexpr TimePoint& operator+=(Duration d) { secs_ += d.to_seconds(); return *this; }
  constexpr TimePoint& operator-=(Duration d) { secs_ -= d.to_seconds(); return *this; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.secs_ + d.to_seconds()};
  }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) { return t + d; }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint{t.secs_ - d.to_seconds()};
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::seconds(a.secs_ - b.secs_);
  }

  friend constexpr auto operator<=>(TimePoint a, TimePoint b) = default;

 private:
  explicit constexpr TimePoint(double s) : secs_{s} {}
  double secs_{0.0};
};

/// An amount of data. Stored in bytes; factories use decimal (SI) multiples,
/// matching the paper's GB/TB request volumes.
class Volume {
 public:
  constexpr Volume() = default;

  [[nodiscard]] static constexpr Volume bytes(double b) { return Volume{b}; }
  [[nodiscard]] static constexpr Volume kilobytes(double kb) { return Volume{kb * 1e3}; }
  [[nodiscard]] static constexpr Volume megabytes(double mb) { return Volume{mb * 1e6}; }
  [[nodiscard]] static constexpr Volume gigabytes(double gb) { return Volume{gb * 1e9}; }
  [[nodiscard]] static constexpr Volume terabytes(double tb) { return Volume{tb * 1e12}; }
  [[nodiscard]] static constexpr Volume zero() { return Volume{0.0}; }

  [[nodiscard]] constexpr double to_bytes() const { return bytes_; }
  [[nodiscard]] constexpr double to_gigabytes() const { return bytes_ / 1e9; }
  [[nodiscard]] constexpr double to_terabytes() const { return bytes_ / 1e12; }
  [[nodiscard]] constexpr bool is_positive() const { return bytes_ > 0.0; }
  [[nodiscard]] constexpr bool is_finite() const { return std::isfinite(bytes_); }

  constexpr Volume& operator+=(Volume other) { bytes_ += other.bytes_; return *this; }
  constexpr Volume& operator-=(Volume other) { bytes_ -= other.bytes_; return *this; }

  friend constexpr Volume operator+(Volume a, Volume b) { return Volume{a.bytes_ + b.bytes_}; }
  friend constexpr Volume operator-(Volume a, Volume b) { return Volume{a.bytes_ - b.bytes_}; }
  friend constexpr Volume operator*(Volume a, double k) { return Volume{a.bytes_ * k}; }
  friend constexpr Volume operator*(double k, Volume a) { return Volume{k * a.bytes_}; }
  friend constexpr Volume operator/(Volume a, double k) { return Volume{a.bytes_ / k}; }
  friend constexpr double operator/(Volume a, Volume b) { return a.bytes_ / b.bytes_; }

  friend constexpr auto operator<=>(Volume a, Volume b) = default;

 private:
  explicit constexpr Volume(double b) : bytes_{b} {}
  double bytes_{0.0};
};

/// A data rate. Stored in bytes per second; factories use decimal multiples
/// (the paper's ports are 1 GB/s, host limits 10 MB/s .. 1 GB/s).
class Bandwidth {
 public:
  constexpr Bandwidth() = default;

  [[nodiscard]] static constexpr Bandwidth bytes_per_second(double b) { return Bandwidth{b}; }
  [[nodiscard]] static constexpr Bandwidth kilobytes_per_second(double kb) { return Bandwidth{kb * 1e3}; }
  [[nodiscard]] static constexpr Bandwidth megabytes_per_second(double mb) { return Bandwidth{mb * 1e6}; }
  [[nodiscard]] static constexpr Bandwidth gigabytes_per_second(double gb) { return Bandwidth{gb * 1e9}; }
  [[nodiscard]] static constexpr Bandwidth zero() { return Bandwidth{0.0}; }
  [[nodiscard]] static constexpr Bandwidth infinity() {
    return Bandwidth{std::numeric_limits<double>::infinity()};
  }

  [[nodiscard]] constexpr double to_bytes_per_second() const { return bps_; }
  [[nodiscard]] constexpr double to_megabytes_per_second() const { return bps_ / 1e6; }
  [[nodiscard]] constexpr double to_gigabytes_per_second() const { return bps_ / 1e9; }
  [[nodiscard]] constexpr bool is_positive() const { return bps_ > 0.0; }
  [[nodiscard]] constexpr bool is_finite() const { return std::isfinite(bps_); }

  constexpr Bandwidth& operator+=(Bandwidth other) { bps_ += other.bps_; return *this; }
  constexpr Bandwidth& operator-=(Bandwidth other) { bps_ -= other.bps_; return *this; }

  friend constexpr Bandwidth operator+(Bandwidth a, Bandwidth b) { return Bandwidth{a.bps_ + b.bps_}; }
  friend constexpr Bandwidth operator-(Bandwidth a, Bandwidth b) { return Bandwidth{a.bps_ - b.bps_}; }
  friend constexpr Bandwidth operator*(Bandwidth a, double k) { return Bandwidth{a.bps_ * k}; }
  friend constexpr Bandwidth operator*(double k, Bandwidth a) { return Bandwidth{k * a.bps_}; }
  friend constexpr Bandwidth operator/(Bandwidth a, double k) { return Bandwidth{a.bps_ / k}; }
  friend constexpr double operator/(Bandwidth a, Bandwidth b) { return a.bps_ / b.bps_; }

  friend constexpr auto operator<=>(Bandwidth a, Bandwidth b) = default;

 private:
  explicit constexpr Bandwidth(double b) : bps_{b} {}
  double bps_{0.0};
};

// ---------------------------------------------------------------------------
// Dimensional cross-type arithmetic.
// ---------------------------------------------------------------------------

/// vol / dur = rate : the average rate needed to move `v` in `d`.
[[nodiscard]] constexpr Bandwidth operator/(Volume v, Duration d) {
  return Bandwidth::bytes_per_second(v.to_bytes() / d.to_seconds());
}

/// vol / rate = dur : the time to move `v` at constant rate `b`.
[[nodiscard]] constexpr Duration operator/(Volume v, Bandwidth b) {
  return Duration::seconds(v.to_bytes() / b.to_bytes_per_second());
}

/// rate * dur = vol : the data moved at constant rate `b` over `d`.
[[nodiscard]] constexpr Volume operator*(Bandwidth b, Duration d) {
  return Volume::bytes(b.to_bytes_per_second() * d.to_seconds());
}
[[nodiscard]] constexpr Volume operator*(Duration d, Bandwidth b) { return b * d; }

// ---------------------------------------------------------------------------
// Min / max / clamp helpers (std::min on wrapper types works, these read
// better at call sites that mix factory expressions).
// ---------------------------------------------------------------------------

[[nodiscard]] constexpr Duration min(Duration a, Duration b) { return a < b ? a : b; }
[[nodiscard]] constexpr Duration max(Duration a, Duration b) { return a < b ? b : a; }
[[nodiscard]] constexpr TimePoint min(TimePoint a, TimePoint b) { return a < b ? a : b; }
[[nodiscard]] constexpr TimePoint max(TimePoint a, TimePoint b) { return a < b ? b : a; }
[[nodiscard]] constexpr Volume min(Volume a, Volume b) { return a < b ? a : b; }
[[nodiscard]] constexpr Volume max(Volume a, Volume b) { return a < b ? b : a; }
[[nodiscard]] constexpr Bandwidth min(Bandwidth a, Bandwidth b) { return a < b ? a : b; }
[[nodiscard]] constexpr Bandwidth max(Bandwidth a, Bandwidth b) { return a < b ? b : a; }

[[nodiscard]] constexpr Bandwidth clamp(Bandwidth x, Bandwidth lo, Bandwidth hi) {
  return x < lo ? lo : (hi < x ? hi : x);
}

// ---------------------------------------------------------------------------
// Approximate comparison. The allocation ledgers accumulate double sums; all
// feasibility checks use a relative-plus-absolute tolerance so that an
// allocation filling a port to exactly its capacity is accepted.
// ---------------------------------------------------------------------------

/// Returns true when `a <= b` within tolerance `abs_eps + rel_eps * |b|`.
[[nodiscard]] constexpr bool approx_le(double a, double b, double abs_eps = 1e-6,
                                       double rel_eps = 1e-9) {
  return a <= b + abs_eps + rel_eps * std::fabs(b);
}

[[nodiscard]] constexpr bool approx_le(Bandwidth a, Bandwidth b) {
  // Tolerance of 1 byte/s absolute: vastly below the 10 MB/s minimum rates.
  return approx_le(a.to_bytes_per_second(), b.to_bytes_per_second(), 1.0);
}

[[nodiscard]] constexpr bool approx_le(TimePoint a, TimePoint b) {
  // Tolerance of 1 microsecond: far below second-scale scheduling decisions.
  return approx_le(a.to_seconds(), b.to_seconds(), 1e-6);
}

[[nodiscard]] constexpr bool approx_eq(double a, double b, double abs_eps = 1e-6,
                                       double rel_eps = 1e-9) {
  return approx_le(a, b, abs_eps, rel_eps) && approx_le(b, a, abs_eps, rel_eps);
}

// ---------------------------------------------------------------------------
// Human-readable formatting (used by tables / logs / examples).
// ---------------------------------------------------------------------------

/// "2.50 GB/s", "10.0 MB/s", ...
[[nodiscard]] std::string to_string(Bandwidth b);
/// "1.00 TB", "500 GB", ...
[[nodiscard]] std::string to_string(Volume v);
/// "90 s", "2.5 min", "3.1 h", "1.2 d"
[[nodiscard]] std::string to_string(Duration d);
/// "t=123.4s"
[[nodiscard]] std::string to_string(TimePoint t);

}  // namespace gridbw
