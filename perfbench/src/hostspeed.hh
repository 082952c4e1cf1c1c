/**
 * @file
 * Host-speed reference. On the shared virtual machine the benchmark
 * was sized on, the same single-threaded sweep ran anywhere from 265
 * to 445 ms per Table III pass, switching within seconds and holding a
 * state for minutes; the clock rate stayed put (a dependent multiply
 * chain kept its speed) while code that issues many independent
 * instructions slowed together, as it does when another tenant busies
 * the core's hyperthread sibling. A fixed loop of eight independent
 * multiply-xorshift chains, timed in short slices between units of
 * work, follows the library's speed (README.md, "Steadiness"). Each
 * unit's time is scaled to the loop's nominal speed, so the reported
 * times are what the unit would take on the reference host in one
 * fixed state. The loop does not call the library, so a change to the
 * library cannot move it.
 */

#ifndef PERFBENCH_HOSTSPEED_HH
#define PERFBENCH_HOSTSPEED_HH

#include <cstddef>

namespace perfbench
{

class HostSpeed
{
  public:
    /** How a slice is timed: wall clock, or the calling thread's CPU. */
    enum class Clock
    {
        Wall,
        ThreadCpu,
    };

    /** One slice's time on the reference host (the scale, seconds). */
    static constexpr double kNominalSliceS = 0.5e-3;
    /** tick() runs a slice once this much time passed since the last. */
    static constexpr double kTickS = 0.02;

    explicit HostSpeed(Clock clock = Clock::Wall) : clock_(clock) {}

    /** Run and time one slice; it joins the current unit. */
    void sample();

    /** sample() if at least kTickS passed since the last slice ended. */
    void tick();

    /** Seconds the current unit's slices took so far. */
    double unitSliceSeconds() const { return unit_s_; }

    /**
     * Close the current unit and return its host-speed factor: the
     * mean slice time since the previous close over kNominalSliceS
     * (above 1 on a slower host). With no slice in the unit the
     * factor of the previous unit carries over (1 at first).
     */
    double closeUnit();

    /** Slices run so far. */
    std::size_t slices() const { return slices_; }

    /** @p seconds measured at host-speed @p factor, at nominal speed. */
    static double normalize(double seconds, double factor)
    {
        return seconds / factor;
    }

  private:
    double now() const;

    Clock clock_;
    double unit_s_ = 0.0;
    std::size_t unit_n_ = 0;
    std::size_t slices_ = 0;
    double last_factor_ = 1.0;
    double last_end_ = -1.0;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_HH
