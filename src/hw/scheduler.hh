/**
 * @file
 * The active-set stage scheduler (docs/fast-forward.md). Each stage
 * has one due cycle; Accelerator::run() ticks a stage only in a cycle
 * where it is due and jumps the clock to the minimum due cycle when
 * none is. A stage that fired or moved a token is due again next
 * cycle; one that did neither sleeps until its own nextWakeCycle(),
 * or until a shared unit it observes changes and wakes it through a
 * WakeList.
 */

#ifndef APIR_HW_SCHEDULER_HH
#define APIR_HW_SCHEDULER_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/wake.hh"

namespace apir {

/**
 * Due cycles of every stage, and the order rule for wakes. Due stages
 * sit in a timing wheel of bit sets, one per cycle modulo kSlots, so a
 * cycle costs one pass over the stages actually due. A wake further
 * ahead than the wheel spans lands early, at its far end: the stage
 * ticks, finds nothing to do and sleeps again.
 */
class StageScheduler
{
  public:
    /** Track `stages` stages, every one due at `cycle`. */
    void
    start(size_t stages, uint64_t cycle)
    {
        words_ = (stages + 63) / 64;
        due_.assign(stages, kNeverWake);
        now_.assign(words_, 0);
        wheel_.assign(kSlots * words_, 0);
        slots_ = 0;
        cycle_ = cycle;
        pass_ = 0;
        for (uint32_t s = 0; s < stages; ++s)
            schedule(s, cycle);
    }

    /** Begin the pass of `cycle` (host phase, before any stage). */
    void
    open(uint64_t cycle)
    {
        cycle_ = cycle;
        pass_ = 0;
        uint64_t slot = cycle % kSlots;
        slots_ &= ~(1ull << slot);
        for (size_t w = 0; w < words_; ++w) {
            now_[w] |= wheel_[slot * words_ + w];
            wheel_[slot * words_ + w] = 0;
        }
    }

    /**
     * Next stage due this cycle, in index order, into `s`; false when
     * the pass is over. Its due cycle is cleared so that wakes raised
     * during its own tick are kept by sleep().
     */
    bool
    nextDue(uint32_t &s)
    {
        for (size_t w = pass_ / 64; w < words_; ++w) {
            if (now_[w]) {
                s = static_cast<uint32_t>(w * 64 + __builtin_ctzll(now_[w]));
                now_[w] &= now_[w] - 1;
                pass_ = s + 1;
                due_[s] = kNeverWake;
                return true;
            }
        }
        pass_ = static_cast<uint32_t>(due_.size());
        return false;
    }

    /** Stage `s` ticked: due at `wake`, or sooner if woken meanwhile. */
    void
    sleep(uint32_t s, uint64_t wake)
    {
        if (wake < due_[s])
            schedule(s, wake);
    }

    /**
     * Something stage `s` observes changed. A stage the pass has not
     * reached yet (host phase, or s above the ticking stage) sees the
     * change this cycle, exactly as the lock-step loop ticks it; one
     * already visited sees it next cycle.
     */
    void
    wake(uint32_t s)
    {
        ++wakes_;
        uint64_t at = s >= pass_ ? cycle_ : cycle_ + 1;
        if (due_[s] > at)
            schedule(s, at);
    }

    /** Minimum due cycle after this cycle's pass (kNeverWake: none). */
    uint64_t
    next()
    {
        // Slots hold the cycles (cycle_, cycle_ + kSlots); one emptied
        // by wakes is found empty here and dropped.
        while (slots_) {
            uint64_t first = cycle_ + 1;
            uint64_t k = __builtin_ctzll(std::rotr(slots_, first % kSlots));
            uint64_t slot = (first + k) % kSlots;
            for (size_t w = 0; w < words_; ++w)
                if (wheel_[slot * words_ + w])
                    return first + k;
            slots_ &= ~(1ull << slot);
        }
        return kNeverWake;
    }

    /** Wakes delivered so far (TickPerf::wakeRecomputes). */
    uint64_t wakes() const { return wakes_; }

  private:
    static constexpr uint64_t kSlots = 64; //!< wheel span, in cycles

    static uint64_t bit(size_t s) { return 1ull << (s % 64); }

    /** Move stage `s` to due cycle `at` >= cycle_ (kNeverWake: none). */
    void
    schedule(uint32_t s, uint64_t at)
    {
        if (due_[s] != kNeverWake) // drop its old wheel entry
            wheel_[due_[s] % kSlots * words_ + s / 64] &= ~bit(s);
        due_[s] = at;
        if (at == cycle_ && pass_ <= s) {
            now_[s / 64] |= bit(s);
        } else if (at != kNeverWake) {
            due_[s] = at = std::min(at, cycle_ + kSlots - 1);
            wheel_[at % kSlots * words_ + s / 64] |= bit(s);
            slots_ |= 1ull << (at % kSlots);
        }
    }

    size_t words_ = 0;            //!< 64-stage words per bit set
    std::vector<uint64_t> due_;   //!< due cycle per stage
    std::vector<uint64_t> now_;   //!< due this cycle, not yet visited
    std::vector<uint64_t> wheel_; //!< kSlots bit sets, cycle % kSlots
    uint64_t slots_ = 0;          //!< wheel slots that may be non-empty
    uint64_t cycle_ = 0;
    uint32_t pass_ = 0; //!< first stage not yet visited this cycle
    uint64_t wakes_ = 0;
};

/**
 * The stages that observe one shared unit (a FIFO's two endpoints, a
 * task queue's sources and enqueuers, a rule engine's allocators and
 * rendezvous, ...). The unit notifies on every state change those
 * stages can see. Unbound (no scheduler) in bare-component tests and
 * under the lock-step oracle, where every stage ticks every cycle.
 */
struct WakeList
{
    StageScheduler *sched = nullptr;
    std::vector<uint32_t> stages;

    void
    notify() const
    {
        if (sched)
            for (uint32_t s : stages)
                sched->wake(s);
    }
};

} // namespace apir

#endif // APIR_HW_SCHEDULER_HH
