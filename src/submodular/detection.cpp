#include "submodular/detection.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace cool::sub {

namespace {

class SingleState final : public EvalState {
 public:
  explicit SingleState(const std::vector<double>* p) : p_(p), in_set_(p->size(), 0) {}

  double marginal(std::size_t e) const override {
    check(e);
    if (in_set_[e]) return 0.0;
    return miss_ * (*p_)[e];
  }

  void add(std::size_t e) override {
    check(e);
    if (in_set_[e]) return;
    in_set_[e] = 1;
    miss_ *= 1.0 - (*p_)[e];
  }

  void reset() override {
    in_set_.assign(in_set_.size(), 0);
    miss_ = 1.0;
  }

  double value() const override { return 1.0 - miss_; }

  std::unique_ptr<EvalState> clone() const override {
    return std::make_unique<SingleState>(*this);
  }

 private:
  void check(std::size_t e) const {
    if (e >= in_set_.size()) throw std::out_of_range("DetectionUtility: element");
  }
  const std::vector<double>* p_;
  std::vector<std::uint8_t> in_set_;
  double miss_ = 1.0;  // Π (1 − p_j) over the current set
};

// The differential reference: the original per-sensor vector-of-pairs
// walk, reached only through reference_detection().
class MultiState final : public EvalState {
 public:
  MultiState(const std::vector<MultiTargetDetectionUtility::Target>* targets,
             const std::vector<std::vector<std::pair<std::size_t, double>>>* by_sensor)
      : targets_(targets),
        by_sensor_(by_sensor),
        miss_(targets->size(), 1.0),
        in_set_(by_sensor->size(), 0) {}

  double marginal(std::size_t e) const override {
    check(e);
    if (in_set_[e]) return 0.0;
    double gain = 0.0;
    for (const auto& [target, p] : (*by_sensor_)[e])
      gain += (*targets_)[target].weight * miss_[target] * p;
    return gain;
  }

  void marginal_batch(std::span<const std::size_t> elements,
                      std::span<double> out_gains) const override {
    if (out_gains.size() < elements.size())
      throw std::invalid_argument(
          "MultiState::marginal_batch: gains span too small");
    // Same arithmetic as the scalar path (term-for-term, in list order) so
    // the batched gains are bit-identical to marginal().
    for (std::size_t i = 0; i < elements.size(); ++i)
      out_gains[i] = marginal(elements[i]);
  }

  void add(std::size_t e) override {
    check(e);
    if (in_set_[e]) return;
    in_set_[e] = 1;
    for (const auto& [target, p] : (*by_sensor_)[e]) miss_[target] *= 1.0 - p;
  }

  void reset() override {
    in_set_.assign(in_set_.size(), 0);
    miss_.assign(miss_.size(), 1.0);
  }

  double value() const override {
    double total = 0.0;
    for (std::size_t i = 0; i < miss_.size(); ++i)
      total += (*targets_)[i].weight * (1.0 - miss_[i]);
    return total;
  }

  std::unique_ptr<EvalState> clone() const override {
    return std::make_unique<MultiState>(*this);
  }

 private:
  void check(std::size_t e) const {
    if (e >= in_set_.size())
      throw std::out_of_range("MultiTargetDetectionUtility: element");
  }
  const std::vector<MultiTargetDetectionUtility::Target>* targets_;
  const std::vector<std::vector<std::pair<std::size_t, double>>>* by_sensor_;
  std::vector<double> miss_;          // per-target Π (1 − p)
  std::vector<std::uint8_t> in_set_;
};

// The production state: a cache-linear walk over the flattened CSR.
// Identical arithmetic to MultiState, term for term:
//
//   reference:  gain += (weight_t * miss_t) * p     (left-associated)
//   fast path:  gain += weighted_miss_[t]   * p     where weighted_miss_[t]
//               is maintained as exactly weight_t * miss_t
//
// Same two operands, same product, same summation order — so the restructure
// is purely a memory-layout change and every result is bit-identical. What
// changes is the access pattern: the target stream and probability stream
// are each one contiguous run, and the only gather left is weighted_miss_
// (one double per target) instead of the reference's two (a 32-byte-stride
// weight inside Target plus the miss array) behind a vector-of-vectors
// indirection.
class FastMultiState final : public EvalState {
 public:
  FastMultiState(const std::vector<std::size_t>* offsets,
                 const std::vector<std::uint32_t>* targets,
                 const std::vector<double>* probs,
                 const std::vector<double>* weights)
      : offsets_(offsets),
        targets_(targets),
        probs_(probs),
        weights_(weights),
        miss_(weights->size(), 1.0),
        weighted_miss_(*weights),  // weight * 1.0 == weight bit-for-bit
        in_set_(offsets->size() - 1, 0) {}

  double marginal(std::size_t e) const override {
    check(e);
    if (in_set_[e]) return 0.0;
    const std::uint32_t* targets = targets_->data();
    const double* probs = probs_->data();
    const double* wm = weighted_miss_.data();
    double gain = 0.0;
    const std::size_t end = (*offsets_)[e + 1];
    for (std::size_t i = (*offsets_)[e]; i < end; ++i)
      gain += wm[targets[i]] * probs[i];
    return gain;
  }

  void marginal_batch(std::span<const std::size_t> elements,
                      std::span<double> out_gains) const override {
    if (out_gains.size() < elements.size())
      throw std::invalid_argument(
          "FastMultiState::marginal_batch: gains span too small");
    const std::size_t* offsets = offsets_->data();
    const std::uint32_t* targets = targets_->data();
    const double* probs = probs_->data();
    const double* wm = weighted_miss_.data();
    for (std::size_t k = 0; k < elements.size(); ++k) {
      const std::size_t e = elements[k];
      check(e);
      if (in_set_[e]) {
        out_gains[k] = 0.0;
        continue;
      }
      double gain = 0.0;
      const std::size_t end = offsets[e + 1];
      for (std::size_t i = offsets[e]; i < end; ++i)
        gain += wm[targets[i]] * probs[i];
      out_gains[k] = gain;
    }
  }

  void add(std::size_t e) override {
    check(e);
    if (in_set_[e]) return;
    in_set_[e] = 1;
    const std::size_t end = (*offsets_)[e + 1];
    for (std::size_t i = (*offsets_)[e]; i < end; ++i) {
      const std::uint32_t t = (*targets_)[i];
      miss_[t] *= 1.0 - (*probs_)[i];
      weighted_miss_[t] = (*weights_)[t] * miss_[t];
    }
  }

  void reset() override {
    in_set_.assign(in_set_.size(), 0);
    miss_.assign(miss_.size(), 1.0);
    weighted_miss_ = *weights_;
  }

  double value() const override {
    double total = 0.0;
    for (std::size_t i = 0; i < miss_.size(); ++i)
      total += (*weights_)[i] * (1.0 - miss_[i]);
    return total;
  }

  std::unique_ptr<EvalState> clone() const override {
    return std::make_unique<FastMultiState>(*this);
  }

  // Fused-evaluator plumbing (resolve_fused): the CSR identity triple is
  // compared across slot states to prove they share one utility, and the
  // per-state gather arrays feed the single-pass multi-slot kernel.
  const std::vector<std::size_t>* csr_offsets() const noexcept {
    return offsets_;
  }
  const std::vector<std::uint32_t>* csr_targets() const noexcept {
    return targets_;
  }
  const std::vector<double>* csr_probs() const noexcept { return probs_; }
  const double* weighted_miss_data() const noexcept {
    return weighted_miss_.data();
  }
  const std::uint8_t* in_set_data() const noexcept { return in_set_.data(); }
  std::size_t element_count() const noexcept { return in_set_.size(); }

 private:
  void check(std::size_t e) const {
    if (e >= in_set_.size())
      throw std::out_of_range("MultiTargetDetectionUtility: element");
  }
  const std::vector<std::size_t>* offsets_;
  const std::vector<std::uint32_t>* targets_;
  const std::vector<double>* probs_;
  const std::vector<double>* weights_;
  std::vector<double> miss_;           // per-target Π (1 − p)
  std::vector<double> weighted_miss_;  // weight_t * miss_t, exactly
  std::vector<std::uint8_t> in_set_;
};

// One pass over each candidate's CSR row accumulating every slot's gain,
// tracking the per-slot first strict maximum as it goes. Per (id, slot)
// the terms wm_t[target] * p are added in row order — the exact adds
// marginal() performs — so the gains the argmax compares are bit-identical
// to the per-slot batch path; only the loads of targets[i] / probs[i] are
// shared across slots, and no gain ever round-trips through memory.
// kSlots is a compile-time constant for the common small T so the
// accumulators live in registers; the dynamic fallback handles any slot
// count resolve_fused admits. Preconditions (valid ids, no id a member of
// any state's set) are the FusedSlotEvaluator contract and are not
// re-checked here.
template <std::size_t kSlots>
void fused_detection_rows(const EvalState* const* states, std::size_t,
                          const std::size_t* ids, std::size_t id_count,
                          double* best_gain, std::size_t* best_index) {
  const auto* s0 = static_cast<const FastMultiState*>(states[0]);
  const std::size_t* offsets = s0->csr_offsets()->data();
  const std::uint32_t* targets = s0->csr_targets()->data();
  const double* probs = s0->csr_probs()->data();
  const double* wm[kSlots];
  for (std::size_t t = 0; t < kSlots; ++t)
    wm[t] = static_cast<const FastMultiState*>(states[t])->weighted_miss_data();
  double bg[kSlots];
  std::size_t bi[kSlots];
  for (std::size_t t = 0; t < kSlots; ++t) {
    bg[t] = -1.0;  // every real gain is >= 0, so k = 0 always wins it
    bi[t] = 0;
  }
  for (std::size_t k = 0; k < id_count; ++k) {
    const std::size_t e = ids[k];
    double acc[kSlots] = {};
    const std::size_t end = offsets[e + 1];
    for (std::size_t i = offsets[e]; i < end; ++i) {
      const std::uint32_t tgt = targets[i];
      const double p = probs[i];
      // Fully unrolled so the accumulators (and the wm row pointers) are
      // scalarized into registers; the rolled form kept acc[] on the
      // stack and reloaded wm[t] from memory on every row entry.
#pragma GCC unroll 64
      for (std::size_t t = 0; t < kSlots; ++t) acc[t] += wm[t][tgt] * p;
    }
#pragma GCC unroll 64
    for (std::size_t t = 0; t < kSlots; ++t) {
      if (acc[t] > bg[t]) {  // strict: first maximum wins, as in the
        bg[t] = acc[t];      // serial ascending scan
        bi[t] = k;
      }
    }
  }
  for (std::size_t t = 0; t < kSlots; ++t) {
    best_gain[t] = bg[t];
    best_index[t] = bi[t];
  }
}

void fused_detection_rows_dynamic(const EvalState* const* states,
                                  std::size_t state_count,
                                  const std::size_t* ids, std::size_t id_count,
                                  double* best_gain, std::size_t* best_index) {
  const auto* s0 = static_cast<const FastMultiState*>(states[0]);
  const std::size_t* offsets = s0->csr_offsets()->data();
  const std::uint32_t* targets = s0->csr_targets()->data();
  const double* probs = s0->csr_probs()->data();
  const double* wm[FusedSlotEvaluator::kMaxSlots];
  for (std::size_t t = 0; t < state_count; ++t)
    wm[t] = static_cast<const FastMultiState*>(states[t])->weighted_miss_data();
  for (std::size_t t = 0; t < state_count; ++t) {
    best_gain[t] = -1.0;
    best_index[t] = 0;
  }
  for (std::size_t k = 0; k < id_count; ++k) {
    const std::size_t e = ids[k];
    double acc[FusedSlotEvaluator::kMaxSlots] = {};
    const std::size_t end = offsets[e + 1];
    for (std::size_t i = offsets[e]; i < end; ++i) {
      const std::uint32_t tgt = targets[i];
      const double p = probs[i];
      for (std::size_t t = 0; t < state_count; ++t) acc[t] += wm[t][tgt] * p;
    }
    for (std::size_t t = 0; t < state_count; ++t) {
      if (acc[t] > best_gain[t]) {
        best_gain[t] = acc[t];
        best_index[t] = k;
      }
    }
  }
}

// Move-local refresh for the repair search (SlotPartition, DESIGN.md
// "Incremental schedule repair"). Per slot it keeps what the reference
// states would hold — weight_t · miss_t, with miss_t = Π (1 − p) over the
// slot's members covering t, multiplied left to right in slot order — and,
// per CSR entry of a member, the same fold with that member left out. A
// loss or gain is then one walk over the element's row with the
// reference's operands and summation order, so it is bit-identical to
// marginal() on a freshly built state.
//
// Exactness of the local refresh: when x leaves slot f (erased) or joins
// slot t (appended), every target x does not cover keeps its fold over the
// same members in the same order, and a marginal reads only its own row's
// targets. So only x's targets are refolded, only sensors covering one of
// them get a new loss or gain into f and t, and the per-move work is
// bounded by x's targets' detector lists rather than by the slots' sizes.
// Slot order is ascending id for sensors that never moved, then arrival
// order; each target's detector list is kept in that order by moving the
// mover's entries to its back, so a refold is a filtered in-order walk.
class DetectionMoveScorer final : public MoveScorer {
 public:
  DetectionMoveScorer(const std::vector<std::size_t>& offsets,
                      const std::vector<std::uint32_t>& targets,
                      const std::vector<double>& probs,
                      const std::vector<double>& weights,
                      const SlotPartition& partition)
      : offsets_(offsets.data()),
        targets_(targets.data()),
        probs_(probs.data()),
        weights_(weights.data()),
        n_(offsets.size() - 1),
        m_(weights.size()),
        T_(partition.slot_count),
        p_(partition),
        list_offsets_(m_ + 1, 0),
        list_(targets.size()),
        weighted_miss_(T_ * m_, 0.0),
        loo_(targets.size(), 1.0),
        in_slot_(T_ * n_, 0),
        seen_(T_, 0),
        stamp_(n_, 0) {
    // Detector lists by target, sensors ascending and each sensor's
    // entries in row order: the initial slot order of every slot.
    for (std::size_t i = 0; i < targets.size(); ++i)
      ++list_offsets_[targets_[i] + 1];
    for (std::size_t t = 0; t < m_; ++t)
      list_offsets_[t + 1] += list_offsets_[t];
    std::vector<std::size_t> fill(list_offsets_.begin(), list_offsets_.end() - 1);
    for (std::size_t v = 0; v < n_; ++v)
      for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i)
        list_[fill[targets_[i]]++] = {v, i};
  }

  std::size_t score_all() override {
    const auto& members = *p_.members;
    std::fill(in_slot_.begin(), in_slot_.end(), static_cast<std::uint8_t>(0));
    for (std::size_t s = 0; s < T_; ++s)
      for (const auto u : members[s]) in_slot_[s * n_ + u] = 1;
    for (std::size_t s = 0; s < T_; ++s)
      for (std::size_t t = 0; t < m_; ++t) refold(s, t);
    const auto& home = *p_.home;
    const auto& movable = *p_.movable;
    const auto& scored = *p_.scored;
    std::size_t calls = 0;
    for (std::size_t v = 0; v < n_; ++v) {
      if (!movable[v]) continue;
      if (home[v] != SlotPartition::kNoSlot) {
        (*p_.loss)[v] = loss_of(v);
        ++calls;
      }
      for (std::size_t s = 0; s < T_; ++s) {
        if (s == home[v] || !scored[s]) continue;
        (*p_.gain)[v * T_ + s] = gain_of(v, s);
        ++calls;
      }
    }
    seen_ = scored;
    return calls;
  }

  std::size_t moved(std::size_t x, std::size_t from, std::size_t to) override {
    constexpr std::size_t kNoSlot = SlotPartition::kNoSlot;
    const auto& home = *p_.home;
    const auto& movable = *p_.movable;
    const auto& scored = *p_.scored;
    if (from != kNoSlot) in_slot_[from * n_ + x] = 0;
    in_slot_[to * n_ + x] = 1;
    ++clock_;
    neighbours_.clear();
    stamp_[x] = clock_;
    neighbours_.push_back(x);
    for (std::size_t i = offsets_[x]; i < offsets_[x + 1]; ++i) {
      const std::size_t t = targets_[i];
      if (i > offsets_[x] && targets_[i - 1] == t) continue;  // same target
      to_back(x, t);
      if (from != kNoSlot) refold(from, t);
      refold(to, t, /*collect=*/true);
    }
    std::size_t calls = 0;
    // A slot the search just started to read gets a full gain column.
    bool full_from = false, full_to = false;
    for (std::size_t s = 0; s < T_; ++s) {
      if (!scored[s] || seen_[s]) continue;
      seen_[s] = 1;
      full_from |= s == from;
      full_to |= s == to;
      for (std::size_t v = 0; v < n_; ++v) {
        if (!movable[v] || home[v] == s) continue;
        (*p_.gain)[v * T_ + s] = gain_of(v, s);
        ++calls;
      }
    }
    const bool gains_from = from != kNoSlot && scored[from] && !full_from;
    const bool gains_to = scored[to] && !full_to;
    for (const std::size_t u : neighbours_) {
      const std::size_t h = home[u];
      if (h != kNoSlot && (h == from || h == to)) {
        (*p_.loss)[u] = loss_of(u);
        ++calls;
      }
      if (gains_from && h != from) {
        (*p_.gain)[u * T_ + from] = gain_of(u, from);
        ++calls;
      }
      if (gains_to && h != to) {
        (*p_.gain)[u * T_ + to] = gain_of(u, to);
        ++calls;
      }
    }
    return calls;
  }

 private:
  struct Detector {
    std::size_t sensor;
    std::size_t entry;  // index into the CSR row arrays
  };

  // Moves x's entries to the back of target t's list: x is now the newest
  // arrival in its slot.
  void to_back(std::size_t x, std::size_t t) {
    Detector* const begin = list_.data() + list_offsets_[t];
    Detector* const end = list_.data() + list_offsets_[t + 1];
    Detector* first = begin;
    while (first->sensor != x) ++first;
    Detector* last = first;
    while (last != end && last->sensor == x) ++last;
    std::rotate(first, last, end);
  }

  // Recomputes slot s's fold for target t and, for every movable member
  // covering t, the fold without that member (an exact leave-one-out:
  // the prefix before the member continued over the members after it).
  // With `collect` the same walk gathers t's movable detectors into this
  // move's neighbours.
  void refold(std::size_t s, std::size_t t, bool collect = false) {
    const std::uint8_t* in_slot = in_slot_.data() + s * n_;
    const auto& movable = *p_.movable;
    picked_.clear();
    factor_.clear();
    double miss = 1.0;
    for (std::size_t k = list_offsets_[t]; k < list_offsets_[t + 1]; ++k) {
      const std::size_t u = list_[k].sensor;
      if (collect && movable[u] && stamp_[u] != clock_) {
        stamp_[u] = clock_;
        neighbours_.push_back(u);
      }
      if (!in_slot[u]) continue;
      const double q = 1.0 - probs_[list_[k].entry];
      picked_.push_back(k);
      factor_.push_back(q);
      miss *= q;
    }
    weighted_miss_[s * m_ + t] = weights_[t] * miss;
    const auto& home = *p_.home;
    const std::size_t count = picked_.size();
    double prefix = 1.0;
    for (std::size_t a = 0; a < count;) {
      const std::size_t u = list_[picked_[a]].sensor;
      std::size_t b = a + 1;
      while (b < count && list_[picked_[b]].sensor == u) ++b;
      if (home[u] == s) {
        double rest = prefix;
        for (std::size_t j = b; j < count; ++j) rest *= factor_[j];
        for (std::size_t j = a; j < b; ++j) loo_[list_[picked_[j]].entry] = rest;
      }
      for (std::size_t j = a; j < b; ++j) prefix *= factor_[j];
      a = b;
    }
  }

  // Reference arithmetic: gain += (weight_t * miss_t) * p in row order.
  double loss_of(std::size_t v) const {
    double gain = 0.0;
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i)
      gain += weights_[targets_[i]] * loo_[i] * probs_[i];
    return gain;
  }

  double gain_of(std::size_t v, std::size_t s) const {
    const double* wm = weighted_miss_.data() + s * m_;
    double gain = 0.0;
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i)
      gain += wm[targets_[i]] * probs_[i];
    return gain;
  }

  const std::size_t* offsets_;
  const std::uint32_t* targets_;
  const double* probs_;
  const double* weights_;
  std::size_t n_, m_, T_;
  SlotPartition p_;
  std::vector<std::size_t> list_offsets_;  // by target, into list_
  std::vector<Detector> list_;             // each target's detectors, slot order
  std::vector<double> weighted_miss_;      // [slot * m + target]: weight_t * miss_t
  std::vector<double> loo_;                // per CSR entry, home slot without its sensor
  std::vector<std::uint8_t> in_slot_;      // [slot * n + sensor]
  std::vector<std::uint8_t> seen_;         // scored flags already served
  std::vector<std::size_t> stamp_;         // neighbour dedup, per move
  std::size_t clock_ = 0;
  std::vector<std::size_t> neighbours_;
  std::vector<std::size_t> picked_;        // refold scratch: list positions
  std::vector<double> factor_;             // refold scratch: 1 − p per pick
};

void validate_probability(double p) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("detection probability outside [0, 1]");
}

double max_detection_value(
    const std::vector<MultiTargetDetectionUtility::Target>& targets) {
  double total = 0.0;
  for (const auto& target : targets) {
    double miss = 1.0;
    for (const auto& [_, p] : target.detectors) miss *= 1.0 - p;
    total += target.weight * (1.0 - miss);
  }
  return total;
}

// reference_detection(): MultiState over its own per-sensor pair lists,
// with the default (rebuild) move scorer and no fused path.
class ReferenceDetection final : public SubmodularFunction {
 public:
  explicit ReferenceDetection(const MultiTargetDetectionUtility& utility)
      : targets_(utility.targets()), by_sensor_(utility.ground_size()) {
    for (std::size_t i = 0; i < targets_.size(); ++i)
      for (const auto& [sensor, p] : targets_[i].detectors)
        by_sensor_[sensor].emplace_back(i, p);
  }

  std::size_t ground_size() const override { return by_sensor_.size(); }
  std::unique_ptr<EvalState> make_state() const override {
    return std::make_unique<MultiState>(&targets_, &by_sensor_);
  }
  double max_value() const override { return max_detection_value(targets_); }

 private:
  std::vector<MultiTargetDetectionUtility::Target> targets_;
  // sensor -> list of (target index, probability) it participates in.
  std::vector<std::vector<std::pair<std::size_t, double>>> by_sensor_;
};

}  // namespace

FusedSlotEvaluator resolve_fused(
    const std::vector<std::unique_ptr<EvalState>>& states) {
  if (states.empty() || states.size() > FusedSlotEvaluator::kMaxSlots)
    return {};
  const auto* first = dynamic_cast<const FastMultiState*>(states[0].get());
  if (first == nullptr) return {};
  for (const auto& state : states) {
    const auto* fast = dynamic_cast<const FastMultiState*>(state.get());
    // All slots must evaluate the exact same utility arrays, or the shared
    // offsets/targets/probs loads would be wrong for some slot.
    if (fast == nullptr || fast->csr_offsets() != first->csr_offsets() ||
        fast->csr_targets() != first->csr_targets() ||
        fast->csr_probs() != first->csr_probs())
      return {};
  }
  switch (states.size()) {
    case 1: return {fused_detection_rows<1>};
    case 2: return {fused_detection_rows<2>};
    case 3: return {fused_detection_rows<3>};
    case 4: return {fused_detection_rows<4>};
    case 5: return {fused_detection_rows<5>};
    case 6: return {fused_detection_rows<6>};
    case 7: return {fused_detection_rows<7>};
    case 8: return {fused_detection_rows<8>};
    case 12: return {fused_detection_rows<12>};
    default: return {fused_detection_rows_dynamic};
  }
}

DetectionUtility::DetectionUtility(std::vector<double> probabilities)
    : p_(std::move(probabilities)) {
  for (const double p : p_) validate_probability(p);
}

std::unique_ptr<EvalState> DetectionUtility::make_state() const {
  return std::make_unique<SingleState>(&p_);
}

double DetectionUtility::max_value() const {
  double miss = 1.0;
  for (const double p : p_) miss *= 1.0 - p;
  return 1.0 - miss;
}

MultiTargetDetectionUtility::MultiTargetDetectionUtility(std::size_t sensor_count,
                                                         std::vector<Target> targets)
    : sensor_count_(sensor_count),
      targets_(std::move(targets)),
      csr_offsets_(sensor_count + 1, 0) {
  if (targets_.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("MultiTargetDetectionUtility: too many targets");
  target_weights_.reserve(targets_.size());
  for (const auto& target : targets_) {
    if (target.weight <= 0.0)
      throw std::invalid_argument("MultiTargetDetectionUtility: weight <= 0");
    target_weights_.push_back(target.weight);
    for (const auto& [sensor, p] : target.detectors) {
      if (sensor >= sensor_count_)
        throw std::out_of_range("MultiTargetDetectionUtility: sensor index");
      validate_probability(p);
      ++csr_offsets_[sensor + 1];
    }
  }
  // Counting sort by sensor: visiting targets in order fills each row in
  // target order, then detector-list order -- the reference's per-sensor
  // list order.
  for (std::size_t v = 0; v < sensor_count_; ++v)
    csr_offsets_[v + 1] += csr_offsets_[v];
  csr_targets_.resize(csr_offsets_.back());
  csr_probs_.resize(csr_offsets_.back());
  std::vector<std::size_t> fill(csr_offsets_.begin(), csr_offsets_.end() - 1);
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    for (const auto& [sensor, p] : targets_[i].detectors) {
      const std::size_t k = fill[sensor]++;
      csr_targets_[k] = static_cast<std::uint32_t>(i);
      csr_probs_[k] = p;
    }
  }
}

MultiTargetDetectionUtility MultiTargetDetectionUtility::uniform(
    std::size_t sensor_count, const std::vector<std::vector<std::size_t>>& covers,
    double p) {
  std::vector<Target> targets;
  targets.reserve(covers.size());
  for (const auto& sensors : covers) {
    Target t;
    t.detectors.reserve(sensors.size());
    for (const auto s : sensors) t.detectors.emplace_back(s, p);
    targets.push_back(std::move(t));
  }
  return MultiTargetDetectionUtility(sensor_count, std::move(targets));
}

std::unique_ptr<EvalState> MultiTargetDetectionUtility::make_state() const {
  return std::make_unique<FastMultiState>(&csr_offsets_, &csr_targets_,
                                          &csr_probs_, &target_weights_);
}

std::unique_ptr<MoveScorer> MultiTargetDetectionUtility::make_move_scorer(
    const SlotPartition& partition) const {
  return std::make_unique<DetectionMoveScorer>(
      csr_offsets_, csr_targets_, csr_probs_, target_weights_, partition);
}

double MultiTargetDetectionUtility::max_value() const {
  return max_detection_value(targets_);
}

std::unique_ptr<SubmodularFunction> reference_detection(
    const MultiTargetDetectionUtility& utility) {
  return std::make_unique<ReferenceDetection>(utility);
}

}  // namespace cool::sub
