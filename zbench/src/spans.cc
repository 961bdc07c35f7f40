#include "spans.hh"

#include <stdexcept>

namespace zbench {

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
}

int
SpanRecorder::open(std::string name, std::string layer, std::string unit)
{
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.unit = std::move(unit);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run_;
    spans_.push_back(std::move(s));
    int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    // Read the clock last so the bookkeeping above is outside the span.
    spans_.back().startUs = nowUs();
    return idx;
}

void
SpanRecorder::close(int idx)
{
    double end = nowUs();
    if (stack_.empty() || stack_.back() != idx)
        throw std::logic_error("zbench: spans closed out of order");
    stack_.pop_back();
    spans_[static_cast<size_t>(idx)].endUs = end;
}

void
SpanRecorder::addDerived(std::string name, std::string layer,
                         std::string unit, double start_us, double end_us)
{
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.unit = std::move(unit);
    s.startUs = start_us;
    s.endUs = end_us;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run_;
    s.derived = true;
    spans_.push_back(std::move(s));
}

zcomp::Json
SpanRecorder::toJson() const
{
    zcomp::Json arr = zcomp::Json::array();
    for (const Span &s : spans_) {
        zcomp::Json j = zcomp::Json::object();
        j["name"] = s.name;
        j["layer"] = s.layer;
        j["unit"] = s.unit;
        j["start_us"] = s.startUs;
        j["end_us"] = s.endUs;
        j["parent"] = s.parent;
        j["run"] = s.run;
        j["derived"] = s.derived;
        arr.push(std::move(j));
    }
    return arr;
}

} // namespace zbench
