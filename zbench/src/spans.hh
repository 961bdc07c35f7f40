/**
 * @file
 * In-memory host-time spans for the zbench traced run.
 *
 * A span brackets one call into a simulator layer, made from the
 * benchmark's own code (no span lives inside the program). Spans nest
 * through a parent index, carry the run id of the iteration that made
 * them, and stay in memory until the runner writes them out at exit.
 * With no recorder installed (the untraced run) a SpanScope reads no
 * clock and stores nothing.
 */

#ifndef ZBENCH_SPANS_HH
#define ZBENCH_SPANS_HH

#include <chrono>
#include <string>
#include <vector>

#include "common/json.hh"

namespace zbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0 on the steady clock. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span
{
    std::string name;   //!< the public function called
    std::string layer;  //!< harness/dnn/sim/cpu/mem/zcomp/workload/
                        //!< bench (zbench's own input building)/root
    std::string unit;   //!< the unit of work it belongs to, or empty
    double startUs = 0; //!< since the recorder was created
    double endUs = 0;
    int parent = -1;    //!< index into the recorder's spans, -1 = none
    int run = 0;        //!< iteration that recorded the span
    bool derived = false; //!< placed from a reported duration
};

class SpanRecorder
{
  public:
    SpanRecorder() : t0_(Clock::now()) {}

    /** Open a span under the innermost open one; returns its index. */
    int open(std::string name, std::string layer, std::string unit);

    /** Close span @p idx (must be the innermost open span). */
    void close(int idx);

    /**
     * Add a closed span under the innermost open one whose extent is
     * derived from a duration the program reported, not measured here.
     */
    void addDerived(std::string name, std::string layer,
                    std::string unit, double start_us, double end_us);

    void setRun(int run) { run_ = run; }
    double nowUs() const;

    zcomp::Json toJson() const;

  private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int run_ = 0;
};

/** RAII span; a no-op when @p rec is null. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, std::string name, std::string layer,
              std::string unit = "")
        : rec_(rec),
          idx_(rec ? rec->open(std::move(name), std::move(layer),
                               std::move(unit))
                   : -1)
    {}
    ~SpanScope()
    {
        if (rec_)
            rec_->close(idx_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec_;
    int idx_;
};

} // namespace zbench

#endif // ZBENCH_SPANS_HH
