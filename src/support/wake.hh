/**
 * @file
 * The wake-cycle vocabulary of the active-set scheduler
 * (hw/scheduler.hh): every timed component exposes
 * `nextWakeCycle(cycle)` — the earliest cycle strictly after `cycle`
 * at which its state can change without any other component making
 * progress — and a stage that did nothing sleeps until then (or until
 * a unit it observes wakes it). A wake may be early (the tick finds
 * nothing to do and the stage sleeps again) but must never be late;
 * components that only react to others return kNeverWake.
 */

#ifndef APIR_SUPPORT_WAKE_HH
#define APIR_SUPPORT_WAKE_HH

#include <cstdint>

namespace apir {

/**
 * "No self-scheduled wake-up" sentinel: the component's state can
 * only change through another component's progress, never by the
 * passage of cycles alone.
 */
inline constexpr uint64_t kNeverWake = ~0ull;

} // namespace apir

#endif // APIR_SUPPORT_WAKE_HH
