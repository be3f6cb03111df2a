#include "submodular/function.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace cool::sub {

namespace {

// The reference refresh: every slot a move touched gets a fresh state for
// its gains, and every movable member of such a slot a fresh state over
// the rest of the slot for its loss. Exact for any oracle; it costs about
// one slot's worth of add()s per member per move.
class RebuildMoveScorer final : public MoveScorer {
 public:
  RebuildMoveScorer(const SubmodularFunction& fn, const SlotPartition& partition)
      : fn_(fn),
        p_(partition),
        states_(partition.slot_count),
        dirty_(partition.slot_count, 1) {}

  std::size_t score_all() override {
    std::fill(dirty_.begin(), dirty_.end(), static_cast<std::uint8_t>(1));
    return refresh();
  }

  std::size_t moved(std::size_t, std::size_t from, std::size_t to) override {
    if (from != SlotPartition::kNoSlot) dirty_[from] = 1;
    dirty_[to] = 1;
    return refresh();
  }

 private:
  std::size_t refresh() {
    const std::size_t T = p_.slot_count;
    const auto& members = *p_.members;
    const auto& home = *p_.home;
    const auto& movable = *p_.movable;
    const auto& scored = *p_.scored;
    auto& loss = *p_.loss;
    auto& gain = *p_.gain;
    std::size_t calls = 0;
    for (std::size_t t = 0; t < T; ++t) {
      if (!dirty_[t]) continue;
      states_[t] = fn_.make_state();
      for (const auto u : members[t]) states_[t]->add(u);
    }
    for (std::size_t v = 0; v < movable.size(); ++v) {
      if (!movable[v]) continue;
      if (home[v] != SlotPartition::kNoSlot && dirty_[home[v]]) {
        const auto rest = fn_.make_state();
        for (const auto u : members[home[v]])
          if (u != v) rest->add(u);
        loss[v] = rest->marginal(v);
        ++calls;
      }
      for (std::size_t t = 0; t < T; ++t) {
        if (t == home[v] || !dirty_[t] || !scored[t]) continue;
        gain[v * T + t] = states_[t]->marginal(v);
        ++calls;
      }
    }
    std::fill(dirty_.begin(), dirty_.end(), static_cast<std::uint8_t>(0));
    return calls;
  }

  const SubmodularFunction& fn_;
  SlotPartition p_;
  std::vector<std::unique_ptr<EvalState>> states_;
  std::vector<std::uint8_t> dirty_;
};

}  // namespace

void EvalState::marginal_batch(std::span<const std::size_t> elements,
                               std::span<double> out_gains) const {
  if (out_gains.size() < elements.size())
    throw std::invalid_argument("EvalState::marginal_batch: gains span too small");
  for (std::size_t i = 0; i < elements.size(); ++i)
    out_gains[i] = marginal(elements[i]);
}

double SubmodularFunction::value(std::span<const std::size_t> set) const {
  const auto state = make_state();
  for (const auto e : set) {
    if (e >= ground_size())
      throw std::out_of_range("SubmodularFunction::value: element out of range");
    state->add(e);
  }
  return state->value();
}

double SubmodularFunction::max_value() const {
  std::vector<std::size_t> all(ground_size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return value(all);
}

std::unique_ptr<MoveScorer> SubmodularFunction::make_move_scorer(
    const SlotPartition& partition) const {
  return std::make_unique<RebuildMoveScorer>(*this, partition);
}

}  // namespace cool::sub
