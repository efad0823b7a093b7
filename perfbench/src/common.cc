#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "circuit/qasm.hh"
#include "isa/assembly.hh"
#include "isa/fidelity.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

int
serviceWorkers()
{
    const int hw =
        static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(std::min(hw, 4) - 1, 1, 3);
}

void
Report::fail(const std::string &why)
{
    correct = false;
    problems.push_back(why);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
tailLatency(const std::vector<double> &v, double q, std::size_t &beyond)
{
    const double t = quantile(v, q);
    beyond = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [t](double x) { return x > t; }));
    return t;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

void
resetPeakRss()
{
    // "5" resets VmHWM to the current RSS (Linux >= 4.0).
    std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace
{

std::string
joinInts(const std::vector<int> &v)
{
    std::string s;
    for (int x : v)
        s += std::to_string(x) + ",";
    return s;
}

} // namespace

std::uint64_t
artifactDigest(const std::string &circuitQasm,
               const std::vector<int> &perm,
               const std::string &routedQasm,
               const std::vector<int> &layout,
               const std::string &isaText)
{
    std::uint64_t h = fnv1a(circuitQasm);
    h = fnv1a("|perm:" + joinInts(perm), h);
    h = fnv1a("|routed:" + routedQasm, h);
    h = fnv1a("|layout:" + joinInts(layout), h);
    return fnv1a("|isa:" + isaText, h);
}

namespace
{

/**
 * The program as RQISA assembly, the daemon's `schedule.isa` text.
 * Programs on a chip can hold mirrored opaque U4 blocks, which have
 * no assembly form; those are spelled instruction by instruction
 * with every number at full precision.
 */
std::string
programText(const reqisc::isa::Program &p)
{
    using namespace reqisc;
    try {
        return isa::toAssembly(p);
    } catch (const std::exception &) {
    }
    std::string s;
    char buf[64];
    const auto num = [&](double v) {
        std::snprintf(buf, sizeof buf, "%.17g ", v);
        s += buf;
    };
    for (const isa::Instruction &in : p.instructions()) {
        s += circuit::opName(in.gate.op);
        s += " q" + joinInts(in.qubits()) + " ";
        if (in.gate.op == circuit::Op::U4) {
            const qmath::Matrix m = in.gate.matrix();
            for (int r = 0; r < m.rows(); ++r)
                for (int c = 0; c < m.cols(); ++c) {
                    num(m(r, c).real());
                    num(m(r, c).imag());
                }
        }
        for (double v : in.gate.params)
            num(v);
        num(in.start);
        num(in.duration);
        s += "\n";
    }
    return s;
}

} // namespace

std::uint64_t
jobDigest(const reqisc::service::JobResult &r)
{
    using namespace reqisc;
    const bool routed = !r.routed.gates().empty() || !r.finalLayout.empty();
    return artifactDigest(
        circuit::toQasm(r.compiled.circuit), r.compiled.finalPermutation,
        routed ? circuit::toQasm(r.routed) : std::string(),
        r.finalLayout,
        r.metrics.schedule.scheduled ? programText(r.program)
                                     : std::string());
}

Quality
qualityOf(const reqisc::service::JobResult &r)
{
    Quality q;
    q.count2Q = r.metrics.count2Q;
    q.depth2Q = r.metrics.depth2Q;
    q.duration = r.metrics.duration;
    q.makespan = r.metrics.schedule.makespan;
    q.distinctSU4 = r.metrics.distinctSU4;
    // On a chip: the estimate under the reconfigured per-edge gate
    // set; device-agnostic: the timed program under the default
    // depolarizing model.
    q.fidelity = r.metrics.backend.used
                     ? r.metrics.backend.fidelityReconfigured
                     : reqisc::isa::analyticFidelity(
                           r.program, reqisc::isa::NoiseModel{});
    return q;
}

void
reportQuality(Report &rep, const std::vector<Quality> &q)
{
    std::vector<double> c2, d2, du, mk, su, fi;
    for (const Quality &x : q) {
        c2.push_back(x.count2Q);
        d2.push_back(x.depth2Q);
        du.push_back(x.duration);
        mk.push_back(x.makespan);
        su.push_back(x.distinctSU4);
        fi.push_back(x.fidelity);
    }
    rep.e2e("count2q_per_circuit", mean(c2), "gates");
    rep.e2e("depth2q_per_circuit", mean(d2), "layers");
    rep.e2e("duration_per_circuit", mean(du), "1/g");
    rep.e2e("makespan_per_circuit", mean(mk), "1/g");
    rep.e2e("distinct_su4_per_circuit", mean(su), "classes");
    rep.e2e("fidelity_est_mean", mean(fi), "fraction");
}

} // namespace perfbench
