#include "cpu/core.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/log.hh"

namespace zcomp {

CoreModel::CoreModel(int id, const ArchConfig &cfg, MemoryHierarchy &mem)
    : id_(id), cfg_(cfg), mem_(mem)
{
}

void
CoreModel::startPhase(const CoreTrace *trace, double start_time)
{
    begin(trace->data(), trace->size(), nullptr, start_time);
}

void
CoreModel::startPhase(OpCursor *cursor, double start_time)
{
    begin(nullptr, 0, cursor, start_time);
}

void
CoreModel::begin(const TraceOp *ops, size_t count, OpCursor *cursor,
                 double start_time)
{
    panic_if(active_, "core %d already has an active phase", id_);
    active_ = true;
    ops_ = ops;
    count_ = count;
    idx_ = 0;
    cursor_ = cursor;
    phaseOps_ = 0;
    time_ = std::max(time_, start_time);
    for (auto &s : streamReady_)
        s = 0;
    zcompBusy_[0] = zcompBusy_[1] = 0;
}

bool
CoreModel::refill()
{
    if (!cursor_)
        return false;
    count_ = cursor_->fill(buf_.data(), buf_.size());
    ZCOMP_CHECK(count_ <= buf_.size(),
                "core %d: cursor filled %zu ops into %zu slots", id_,
                count_, buf_.size());
    ops_ = buf_.data();
    idx_ = 0;
    if (count_ == 0)
        cursor_ = nullptr;
    return count_ > 0;
}

void
CoreModel::step()
{
    panic_if(done(), "step on a finished core");
    // One op per step; the drain takes the step after the last op.
    if (idx_ < count_ || refill()) {
        execOp(ops_[idx_++]);
        phaseOps_++;
    } else {
        drain();
        active_ = false;
    }
}

void
CoreModel::syncTo(double t)
{
    if (t > time_) {
        breakdown_.sync += t - time_;
        time_ = t;
    }
}

void
CoreModel::execOp(const TraceOp &op)
{
    ZCOMP_DCHECK(op.stream < maxStreams, "stream id %d out of range",
                 op.stream);
    double t = time_;

    // Issue cost.
    double issue = static_cast<double>(op.uops) /
                   static_cast<double>(cfg_.core.issueWidth);
    breakdown_.compute += issue;
    t += issue;

    if (op.bytes == 0) {
        time_ = t;
        return;
    }

    // Dependency stream: wait for the chain result that produces this
    // op's address.
    if (op.stream >= 0) {
        double ready = streamReady_[op.stream];
        if (ready > t) {
            breakdown_.memory += ready - t;
            t = ready;
        }
    }

    // ZCOMP logic unit throughput: the load-side (zcompl) and
    // store-side (zcomps) pipelines each accept one instruction per
    // logicThroughput cycles (Section 3.3).
    if (op.zcompUnit) {
        double &busy = zcompBusy_[op.isWrite ? 1 : 0];
        if (busy > t) {
            breakdown_.compute += busy - t;
            t = busy;
        }
        busy = t + static_cast<double>(cfg_.zcomp.logicThroughput);
        zcompBusyCycles_ +=
            static_cast<double>(cfg_.zcomp.logicThroughput);
    }

    if (!op.isWrite) {
        // MSHR occupancy: stall when all miss slots are busy.
        while (static_cast<int>(outstanding_.size()) >=
               cfg_.core.mshrs) {
            double c = outstanding_.top();
            outstanding_.pop();
            if (c > t) {
                breakdown_.memory += c - t;
                t = c;
            }
        }
        ZCOMP_DCHECK(static_cast<int>(outstanding_.size()) <
                         cfg_.core.mshrs,
                     "MSHR stall loop left %zu of %d slots busy",
                     outstanding_.size(), cfg_.core.mshrs);
        AccessResult r = mem_.access(id_, op.addr, op.bytes, false, t,
                                     op.pc);
        double completion = t + r.latency;
        if (r.latency > cfg_.l1.latency + 0.5)
            outstanding_.push(completion);
        if (op.stream >= 0)
            streamReady_[op.stream] = completion + op.chainLat;
    } else {
        AccessResult r = mem_.access(id_, op.addr, op.bytes, true, t,
                                     op.pc);
        while (static_cast<int>(storeQ_.size()) >=
               cfg_.core.storeBuffer) {
            double c = storeQ_.top();
            storeQ_.pop();
            if (c > t) {
                breakdown_.memory += c - t;
                t = c;
            }
        }
        storeQ_.push(t + r.latency);
        ZCOMP_DCHECK(static_cast<int>(storeQ_.size()) <=
                         cfg_.core.storeBuffer,
                     "store buffer overfilled: %zu of %d entries",
                     storeQ_.size(), cfg_.core.storeBuffer);
        // The next compressed store address depends only on the logic
        // stage of this instruction, not on the store completing.
        if (op.stream >= 0)
            streamReady_[op.stream] = t + op.chainLat;
    }

    // The local clock only moves forward: every stall above advanced
    // t, never rewound it.
    ZCOMP_DCHECK(t >= time_, "core %d clock went backwards: %f < %f",
                 id_, t, time_);
    time_ = t;
}

void
CoreModel::drain()
{
    double end = time_;
    while (!outstanding_.empty()) {
        end = std::max(end, outstanding_.top());
        outstanding_.pop();
    }
    while (!storeQ_.empty()) {
        end = std::max(end, storeQ_.top());
        storeQ_.pop();
    }
    if (end > time_) {
        breakdown_.memory += end - time_;
        time_ = end;
    }
    // A finished phase leaves no in-flight misses or buffered stores.
    ZCOMP_CHECK(outstanding_.empty() && storeQ_.empty(),
                "core %d drain left %zu misses and %zu stores pending",
                id_, outstanding_.size(), storeQ_.size());
}

} // namespace zcomp
