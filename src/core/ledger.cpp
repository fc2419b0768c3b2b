#include "core/ledger.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gridbw {

NetworkLedger::NetworkLedger(const Network& network)
    : network_{&network},
      ingress_(network.ingress_count()),
      egress_(network.egress_count()) {}

// gridbw:hot
bool NetworkLedger::fits(IngressId i, EgressId e, TimePoint t0, TimePoint t1,
                         Bandwidth bw) const {
  const bool ok = fits_ingress(i, t0, t1, bw) && fits_egress(e, t0, t1, bw);
  if (observer_ != nullptr) {
    observer_->count(obs::Counter::kLedgerFitsChecks);
    if (!ok) observer_->count(obs::Counter::kLedgerFitsRejected);
  }
  return ok;
}

bool NetworkLedger::fits_ingress(IngressId i, TimePoint t0, TimePoint t1,
                                 Bandwidth bw) const {
  const double peak = ingress_.at(i.value).max_over(t0, t1);
  return approx_le(Bandwidth::bytes_per_second(peak + bw.to_bytes_per_second()),
                   network_->ingress_capacity(i));
}

bool NetworkLedger::fits_egress(EgressId e, TimePoint t0, TimePoint t1,
                                Bandwidth bw) const {
  const double peak = egress_.at(e.value).max_over(t0, t1);
  return approx_le(Bandwidth::bytes_per_second(peak + bw.to_bytes_per_second()),
                   network_->egress_capacity(e));
}

// gridbw:hot
void NetworkLedger::reserve(IngressId i, EgressId e, TimePoint t0, TimePoint t1,
                            Bandwidth bw) {
  const double add = bw.to_bytes_per_second();
  ingress_.at(i.value).add(t0, t1, add);
  egress_.at(e.value).add(t0, t1, add);
  if (observer_ != nullptr) observer_->count(obs::Counter::kLedgerReservations);
}

// gridbw:hot
void NetworkLedger::release(IngressId i, EgressId e, TimePoint t0, TimePoint t1,
                            Bandwidth bw) {
  const double sub = -bw.to_bytes_per_second();
  ingress_.at(i.value).add(t0, t1, sub);
  egress_.at(e.value).add(t0, t1, sub);
  if (observer_ != nullptr) observer_->count(obs::Counter::kLedgerReleases);
}

CounterLedger::CounterLedger(const Network& network)
    : network_{&network},
      ingress_(network.ingress_count(), Bandwidth::zero()),
      egress_(network.egress_count(), Bandwidth::zero()) {}

// gridbw:hot
bool CounterLedger::fits(IngressId i, EgressId e, Bandwidth bw) const {
  // Deliberately uninstrumented: each call is a handful of instructions and
  // the slice sweeps issue millions of them, so even a disabled-observer
  // pointer test shows up in unoptimized builds. Engine-level note_* events
  // carry the admission story for CounterLedger users.
  return approx_le(ingress_.at(i.value) + bw, network_->ingress_capacity(i)) &&
         approx_le(egress_.at(e.value) + bw, network_->egress_capacity(e));
}

// gridbw:hot
void CounterLedger::allocate(IngressId i, EgressId e, Bandwidth bw) {
  ingress_.at(i.value) += bw;
  egress_.at(e.value) += bw;
}

// gridbw:hot
void CounterLedger::reclaim(IngressId i, EgressId e, Bandwidth bw) {
  ingress_.at(i.value) -= bw;
  egress_.at(e.value) -= bw;
  // FP noise on long allocate/reclaim chains legitimately dips a hair below
  // zero — clamp it. Drift past the admission tolerance is a mismatched
  // allocate/reclaim pair; note_negative_drift asserts (debug) / counts it
  // so the accounting bug surfaces instead of biasing fits() optimistically.
  if (ingress_.at(i.value) < Bandwidth::zero()) {
    note_negative_drift(ingress_.at(i.value));
    ingress_.at(i.value) = Bandwidth::zero();
  }
  if (egress_.at(e.value) < Bandwidth::zero()) {
    note_negative_drift(egress_.at(e.value));
    egress_.at(e.value) = Bandwidth::zero();
  }
}

void CounterLedger::note_negative_drift(Bandwidth value) const {
  // Same 1 byte/s absolute tolerance as approx_le(Bandwidth, Bandwidth):
  // anything within it is expected rounding noise, not an accounting bug.
  if (value.to_bytes_per_second() >= -1.0) return;
  assert(false &&
         "CounterLedger::reclaim: counter drift beyond tolerance "
         "(mismatched allocate/reclaim pair)");
  if (observer_ != nullptr) observer_->count(obs::Counter::kLedgerDriftClamped);
}

void CounterLedger::reset() {
  std::fill(ingress_.begin(), ingress_.end(), Bandwidth::zero());
  std::fill(egress_.begin(), egress_.end(), Bandwidth::zero());
}

double CounterLedger::ingress_util_with(IngressId i, Bandwidth bw) const {
  return (ingress_.at(i.value) + bw) / network_->ingress_capacity(i);
}

double CounterLedger::egress_util_with(EgressId e, Bandwidth bw) const {
  return (egress_.at(e.value) + bw) / network_->egress_capacity(e);
}

}  // namespace gridbw
