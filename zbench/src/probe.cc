#include "probe.hh"

#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace zbench {

namespace {

constexpr long samplePeriodNs = 50'000'000; // 20 samples/s
constexpr int lookupsPerSample = 20000;
constexpr uint64_t tableWords = samplerTableBytes / sizeof(uint64_t);

/**
 * The probe is shaped like the simulator's own inner loop: hashed
 * lookups into a table far larger than the private L2, each a
 * read-modify-write behind a data-dependent branch, as a cache model
 * probes and updates its tag arrays. Of the probes tried (dependent
 * pointer chases over 16 and 64 MiB, a floating-point chain, a
 * streaming pass), its time followed the workloads' host time most
 * closely as the host's load changed; tables of 4 to 64 MiB timed
 * alike. Allocated once and kept until exit.
 */
uint64_t *table;

// Written only by the signal handler while the timer is armed; read
// and reset by takeHostSample() on the same thread with the signal
// blocked.
uint64_t state = 0x9e3779b97f4a7c15ULL;
double probeSeconds;
long samples;
timer_t timer;
bool armed;
volatile uint64_t sink;

double
monotonicSeconds()
{
    timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return static_cast<double>(t.tv_sec) + t.tv_nsec * 1e-9;
}

void
onTimer(int)
{
    double t0 = monotonicSeconds();
    uint64_t x = state, hits = 0;
    for (int i = 0; i < lookupsPerSample; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t &e = table[(x >> 11) & (tableWords - 1)];
        if ((e & 3) == (x & 3)) {
            hits++;
            e += x;
        } else {
            e ^= x >> 3;
        }
    }
    state = x;
    sink = sink + hits;
    probeSeconds += monotonicSeconds() - t0;
    samples++;
}

} // namespace

void
startHostSampler()
{
    table = new uint64_t[tableWords];
    for (uint64_t i = 0; i < tableWords; i++)
        table[i] = i * 2654435761ULL;

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onTimer;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGRTMIN, &sa, nullptr) != 0)
        throw std::runtime_error("host sampler: sigaction failed");

    // Deliver to this thread only: the probe must share its core.
    sigevent sev;
    std::memset(&sev, 0, sizeof(sev));
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGRTMIN;
    sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
        throw std::runtime_error("host sampler: timer_create failed");
    itimerspec its;
    its.it_interval = {0, samplePeriodNs};
    its.it_value = {0, samplePeriodNs};
    if (timer_settime(timer, 0, &its, nullptr) != 0)
        throw std::runtime_error("host sampler: timer_settime failed");
    armed = true;
}

void
stopHostSampler()
{
    if (!armed)
        return;
    timer_delete(timer);
    armed = false;
}

HostSample
takeHostSample()
{
    sigset_t set, old;
    sigemptyset(&set);
    sigaddset(&set, SIGRTMIN);
    pthread_sigmask(SIG_BLOCK, &set, &old);
    HostSample s{probeSeconds, samples};
    probeSeconds = 0;
    samples = 0;
    pthread_sigmask(SIG_SETMASK, &old, nullptr);
    return s;
}

} // namespace zbench
