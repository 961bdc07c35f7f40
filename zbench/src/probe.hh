/**
 * @file
 * Host-speed sampler: a fixed probe, independent of the simulator,
 * that interrupts the runner thread at a steady rate while it works.
 *
 * The benchmark host is a share of a machine whose memory system is
 * shared with other tenants; how fast the same code runs drifts with
 * their load, by 2x over minutes. Every 50 ms a timer signal runs the
 * probe, a fixed burst of hashed lookups into a 16 MiB table, on the
 * runner thread itself. Its mean time over a timed stretch says how
 * fast the host was during that very stretch. run.py multiplies the
 * stretch's host time by nominalSampleSeconds over that mean, so a
 * slow or fast host period cancels out, while a change to the
 * simulator's own speed does not: the probe never calls into the
 * simulator.
 */

#ifndef ZBENCH_PROBE_HH
#define ZBENCH_PROBE_HH

#include <cstdint>

namespace zbench {

/** Size of the probe's table, resident for the whole run. */
constexpr int64_t samplerTableBytes = int64_t{16} << 20;

/**
 * Host seconds of one probe sample on an unloaded reference host
 * (4-vCPU Xeon VM). A stretch whose samples take this long on average
 * keeps its host time; one whose samples take twice as long is
 * counted at half.
 */
constexpr double nominalSampleSeconds = 0.3e-3;

/** Probe time and sample count of a timed stretch. */
struct HostSample
{
    double probeSeconds = 0;
    long samples = 0;
};

/**
 * Build the probe's table and arm the sampler's timer on the calling
 * thread. Call once, before the first timed stretch.
 */
void startHostSampler();

/** Disarm the timer; no sample runs after it returns. */
void stopHostSampler();

/** Probe time and samples since the previous call (or the start). */
HostSample takeHostSample();

} // namespace zbench

#endif // ZBENCH_PROBE_HH
