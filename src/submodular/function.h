// Submodular set-function interface.
//
// The paper assumes each target's utility U_i() is a non-decreasing
// submodular function with U_i(∅) = 0 (Section II-C) and the per-slot
// objective Σ_i U_i(S(O_i, t)) is therefore submodular too. Every utility
// in this library implements the interface below.
//
// Design: greedy scheduling needs *many* marginal-gain queries against a
// growing set, so the interface is built around an incremental evaluation
// State rather than from-scratch value(S) calls:
//
//   auto state = fn.make_state();         // represents S = ∅
//   double gain = state->marginal(e);     // U(S ∪ {e}) − U(S), S unchanged
//   state->add(e);                        // S ← S ∪ {e}
//
// value(S) is provided for tests and one-shot evaluation and is implemented
// on top of State by default. Local search over a slot partition (schedule
// repair) asks instead for a MoveScorer, which keeps every move's loss and
// gain exact as elements move between slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace cool::sub {

// Incremental evaluator positioned at some set S (initially ∅).
//
// Thread-safety contract: `marginal` and `marginal_batch` are const and
// must be safe to call concurrently from multiple threads on the same
// state (no mutable caches). `add` and `reset` require exclusive access.
class EvalState {
 public:
  virtual ~EvalState() = default;

  // U(S ∪ {element}) − U(S). Must not mutate the state. Adding an element
  // already in S must return 0 (idempotence of sets).
  virtual double marginal(std::size_t element) const = 0;

  // Batched marginals: out_gains[i] = marginal(elements[i]), bit-for-bit.
  // Requires out_gains.size() >= elements.size(). The default is the
  // scalar loop; oracles with flat layouts override it to keep the argmax
  // scan's inner loop free of virtual dispatch.
  virtual void marginal_batch(std::span<const std::size_t> elements,
                              std::span<double> out_gains) const;

  // S ← S ∪ {element}. Adding a member twice is a no-op.
  virtual void add(std::size_t element) = 0;

  // S ← ∅, equivalent to a fresh make_state() without the allocations —
  // the repeated-evaluation paths (evaluator, repair oracle, LP rounding)
  // reset one state per slot instead of churning the heap.
  virtual void reset() = 0;

  // U(S).
  virtual double value() const = 0;

  // Deep copy (used by the exhaustive scheduler's backtracking search).
  virtual std::unique_ptr<EvalState> clone() const = 0;
};

// Fused slot-row evaluation (DESIGN.md section 15): the greedy-family
// argmax scans the same candidate ids against every slot state each round.
// When all slot states are the same flat-layout concrete type over one
// shared utility, the whole scan can walk each candidate's coverage row
// ONCE and accumulate all T gains in that single pass — T independent
// multiply-accumulate chains sharing the row's index/probability loads —
// instead of re-reading the row per slot. The arithmetic per (id, slot) is
// term-for-term identical to marginal(), so gains are bit-for-bit equal.
//
// resolve_fused() performs the type/aliasing checks (dynamic_cast per
// state) ONCE per schedule() call; the returned fn then dispatches with
// unchecked static casts. fn == nullptr means "no fused path" (mixed or
// reference states, kScalar forced) and callers fall back to per-slot
// marginal_batch. Defined in detection.cpp (the detection oracle is the
// only fused backend today).
struct FusedSlotEvaluator {
  // fn(states, state_count, ids, id_count, best_gain, best_index): the
  // fused scan-and-argmax. For every slot t it computes
  //   gain(t, k) = states[t]->marginal(ids[k])
  // and returns the row's FIRST strict maximum:
  //   best_index[t] = min { k : gain(t, k) >= gain(t, j) for all j }
  //   best_gain[t]  = gain(t, best_index[t])
  // Folding the argmax into the kernel keeps the per-candidate gains in
  // registers — nothing is spilled to a gains matrix and re-scanned.
  //
  // Preconditions (the greedy-family schedulers guarantee both; this is a
  // trusted internal hot path, so they are not re-checked):
  //   * id_count >= 1 and every id is a valid element index;
  //   * no id is already a member of ANY state's set (the schedulers scan
  //     unplaced sensors only). marginal() would return 0 for a member, so
  //     violating this yields a gain where 0 is expected.
  using Fn = void (*)(const EvalState* const* states, std::size_t state_count,
                      const std::size_t* ids, std::size_t id_count,
                      double* best_gain, std::size_t* best_index);
  Fn fn = nullptr;
  explicit operator bool() const noexcept { return fn != nullptr; }

  // Largest state_count resolve_fused() will fuse; callers may size
  // best_gain/best_index scratch with this bound.
  static constexpr std::size_t kMaxSlots = 64;
};

FusedSlotEvaluator resolve_fused(
    const std::vector<std::unique_ptr<EvalState>>& states);

// Move scoring for a local search over a slot partition (core/repair.h;
// DESIGN.md, "Incremental schedule repair"). The search moves one element
// at a time between slots and ranks moves by, for every movable v,
//   loss[v]            = U(S_h) − U(S_h \ {v})   over v's home slot h,
//   gain[v * T + s]    = U(S_s ∪ {v}) − U(S_s)   for each scored slot s ≠ h,
// each bit-identical to marginal(v) on a fresh state that add()ed the
// slot's other members in slot order. The caller owns the partition and
// both tables; the scorer keeps every entry the search reads exact.
struct SlotPartition {
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  std::size_t slot_count = 0;
  // members[s]: slot s's active elements in slot order. Each list starts
  // ascending; an arriving element is appended and a departing one is
  // erased, so later orders follow from the moves alone.
  const std::vector<std::vector<std::size_t>>* members = nullptr;
  // home[v]: v's only slot; kNoSlot when v is unplaced or sits in several
  // slots (such elements are never movable).
  const std::vector<std::size_t>* home = nullptr;
  const std::vector<std::uint8_t>* movable = nullptr;
  // scored[s]: gains into s are read. Flags only ever turn on.
  const std::vector<std::uint8_t>* scored = nullptr;
  std::vector<double>* loss = nullptr;  // size ground_size()
  std::vector<double>* gain = nullptr;  // size ground_size() * slot_count
};

class MoveScorer {
 public:
  MoveScorer() = default;
  MoveScorer(const MoveScorer&) = delete;
  MoveScorer& operator=(const MoveScorer&) = delete;
  virtual ~MoveScorer() = default;
  // Fills every entry the search reads. Returns the number of loss and
  // gain values computed (each costs about one marginal() query).
  virtual std::size_t score_all() = 0;
  // Refreshes the tables after `element` moved from slot `from` (kNoSlot
  // when it was unplaced) to slot `to`. The partition already reflects the
  // move, including any slot whose scored flag it just turned on.
  virtual std::size_t moved(std::size_t element, std::size_t from,
                            std::size_t to) = 0;
};

class SubmodularFunction {
 public:
  virtual ~SubmodularFunction() = default;

  // Size of the ground set; valid elements are [0, ground_size()).
  virtual std::size_t ground_size() const = 0;

  // Fresh evaluator at S = ∅.
  virtual std::unique_ptr<EvalState> make_state() const = 0;

  // U(S) for an explicit set (elements may repeat; repeats are ignored).
  virtual double value(std::span<const std::size_t> set) const;

  // An upper bound on U over the whole ground set: U(V). Used for
  // normalizations and the paper's utility upper bound.
  virtual double max_value() const;

  // Scorer for a local search over `partition` (which must outlive it).
  // The default rebuilds, for every slot a move touched, one fresh state
  // for the slot's gains and one per movable member for its loss; the
  // detection oracle overrides it to refresh only what a move can change.
  virtual std::unique_ptr<MoveScorer> make_move_scorer(
      const SlotPartition& partition) const;
};

}  // namespace cool::sub
