#include "workloads/suite.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/log.hh"
#include "trace/replay_gen.hh"

namespace amsc
{

std::string
workloadClassName(WorkloadClass c)
{
    switch (c) {
      case WorkloadClass::SharedFriendly:
        return "shared-friendly";
      case WorkloadClass::PrivateFriendly:
        return "private-friendly";
      case WorkloadClass::Neutral:
        return "neutral";
    }
    return "?";
}

namespace
{

/** Lines per MB of footprint at 128 B lines. */
constexpr std::uint64_t
linesOfMb(double mb)
{
    return static_cast<std::uint64_t>(mb * 1024.0 * 1024.0 / 128.0);
}

/** Shared-cache-friendly template: large skewed read-shared region. */
TraceParams
sharedFriendlyTrace(double mb, double alpha, double shared_frac,
                    std::uint32_t compute)
{
    TraceParams t;
    t.pattern = AccessPattern::ZipfShared;
    t.sharedLines = linesOfMb(mb);
    t.zipfAlpha = alpha;
    t.sharedFraction = shared_frac;
    t.broadcastMix = 0.30;
    t.phaseCyclesPerLine = 2;
    t.broadcastWindow = 16;
    t.privateLinesPerCta = 4096;
    t.writeFraction = 0.08;
    t.computePerMem = compute;
    t.memInstrsPerWarp = 1200;
    return t;
}

/** Private-cache-friendly template: lockstep broadcast stream. */
TraceParams
privateFriendlyTrace(double mb, std::uint32_t window,
                     std::uint32_t phase_cycles,
                     std::uint32_t compute)
{
    TraceParams t;
    t.pattern = AccessPattern::Broadcast;
    t.sharedLines = linesOfMb(mb);
    t.broadcastWindow = window;
    t.phaseCyclesPerLine = phase_cycles;
    t.hotLines = 768;
    t.hotFraction = 0.15;
    t.sharedFraction = 0.97;
    t.privateLinesPerCta = 128;
    t.writeFraction = 0.02;
    t.computePerMem = compute;
    t.memInstrsPerWarp = 1200;
    return t;
}

/** Neutral template: per-CTA streaming, negligible shared data. */
TraceParams
neutralTrace(double mb, std::uint64_t private_lines,
             std::uint32_t compute, double write_frac)
{
    TraceParams t;
    t.pattern = AccessPattern::PrivateStream;
    t.sharedLines = linesOfMb(mb) == 0 ? 8 : linesOfMb(mb);
    t.sharedFraction = 0.05;
    t.privateLinesPerCta = private_lines;
    t.writeFraction = write_frac;
    t.computePerMem = compute;
    t.memInstrsPerWarp = 1200;
    return t;
}

std::vector<WorkloadSpec>
buildSuite()
{
    std::vector<WorkloadSpec> v;
    auto add = [&v](std::string abbr, std::string full,
                    WorkloadClass k, double mb, std::uint32_t paper_knl,
                    std::uint32_t sim_knl, TraceParams t) {
        WorkloadSpec s;
        s.abbr = std::move(abbr);
        s.fullName = std::move(full);
        s.klass = k;
        s.sharedMb = mb;
        s.paperKernels = paper_knl;
        s.simKernels = sim_knl;
        s.trace = t;
        v.push_back(std::move(s));
    };

    // ---- shared-cache-friendly (Fig 2a) ---------------------------
    // LUD suffers a ~3x miss-rate multiple under private caching:
    // lowest skew, biggest working set relative to a private share.
    add("LUD", "LU Decomposition", WorkloadClass::SharedFriendly,
        33.4, 3, 3, sharedFriendlyTrace(33.4, 0.45, 0.75, 6));
    add("SP", "Survey Propagation", WorkloadClass::SharedFriendly,
        17.0, 2, 2, sharedFriendlyTrace(17.0, 0.60, 0.70, 6));
    add("3DC", "3D Convolution", WorkloadClass::SharedFriendly, 51.1,
        48, 4, sharedFriendlyTrace(51.1, 0.65, 0.70, 7));
    add("BT", "B+TREE Search", WorkloadClass::SharedFriendly, 13.7, 1,
        1, sharedFriendlyTrace(13.7, 0.62, 0.72, 6));
    {
        // GEMM: small (1.8 MB) tile-shared matrix; fits a shared LLC
        // but not a per-cluster private share.
        TraceParams t;
        t.pattern = AccessPattern::TiledShared;
        t.sharedLines = linesOfMb(1.8);
        t.tileLines = 192;
        t.ctasPerTile = 4;
        t.sharedFraction = 0.75;
        t.privateLinesPerCta = 3072;
        t.writeFraction = 0.10;
        t.computePerMem = 5;
        t.memInstrsPerWarp = 1200;
        add("GEMM", "GEMM", WorkloadClass::SharedFriendly, 1.8, 1, 1,
            t);
    }
    add("BP", "Backprop", WorkloadClass::SharedFriendly, 18.8, 2, 2,
        sharedFriendlyTrace(18.8, 0.58, 0.70, 6));

    // ---- private-cache-friendly (Fig 2b) --------------------------
    add("AN", "AlexNet", WorkloadClass::PrivateFriendly, 1.0, 6, 4,
        privateFriendlyTrace(1.0, 12, 6, 3));
    add("RN", "ResNet", WorkloadClass::PrivateFriendly, 4.2, 6, 4,
        privateFriendlyTrace(4.2, 20, 8, 4));
    add("SN", "SqueezeNet", WorkloadClass::PrivateFriendly, 0.7, 1, 1,
        privateFriendlyTrace(0.7, 8, 5, 2));
    add("NN", "NeuralNetwork", WorkloadClass::PrivateFriendly, 5.7, 2,
        2, privateFriendlyTrace(5.7, 16, 7, 3));
    add("MM", "Matrix Multiply", WorkloadClass::PrivateFriendly, 1.9,
        2, 2, privateFriendlyTrace(1.9, 12, 6, 3));

    // ---- shared/private-cache-neutral (Fig 2c) --------------------
    add("BS", "BlackScholes", WorkloadClass::Neutral, 0.001, 3, 3,
        neutralTrace(0.001, 4096, 5, 0.25));
    add("DWT2D", "DWT2D", WorkloadClass::Neutral, 0.001, 1, 1,
        neutralTrace(0.001, 6144, 6, 0.20));
    add("MS", "Merge Sort", WorkloadClass::Neutral, 0.001, 1, 1,
        neutralTrace(0.001, 8192, 5, 0.30));
    add("BINO", "BinomialOptions", WorkloadClass::Neutral, 0.017, 1, 1,
        neutralTrace(0.017, 2048, 8, 0.10));
    add("HG", "Histogram", WorkloadClass::Neutral, 0.003, 1, 1,
        neutralTrace(0.003, 4096, 4, 0.30));
    add("VA", "Vector Add", WorkloadClass::Neutral, 0.001, 1, 1,
        neutralTrace(0.001, 8192, 4, 0.33));

    return v;
}

} // namespace

const std::vector<WorkloadSpec> &
WorkloadSuite::all()
{
    static const std::vector<WorkloadSpec> suite = buildSuite();
    return suite;
}

const WorkloadSpec &
WorkloadSuite::byName(const std::string &abbr)
{
    for (const auto &s : all()) {
        if (s.abbr == abbr)
            return s;
    }
    throw ConfigError(strfmt("unknown workload '%s'", abbr.c_str()));
}

std::vector<WorkloadSpec>
WorkloadSuite::byClass(WorkloadClass c)
{
    std::vector<WorkloadSpec> out;
    for (const auto &s : all()) {
        if (s.klass == c)
            out.push_back(s);
    }
    return out;
}

std::vector<KernelInfo>
WorkloadSuite::buildKernels(const WorkloadSpec &spec,
                            std::uint64_t seed, AppId app)
{
    std::vector<KernelInfo> kernels;
    const std::uint32_t n = spec.simKernels == 0 ? 1 : spec.simKernels;
    for (std::uint32_t k = 0; k < n; ++k) {
        TraceParams t = spec.trace;
        t.seed = seed + 7919ULL * k + 104729ULL * app;
        // Address-space isolation across apps and kernels: shared
        // data persists across kernels (weight reuse), private data
        // is fresh per kernel.
        const Addr app_base = static_cast<Addr>(app) << 36;
        t.sharedBase = app_base;
        t.privateBase =
            app_base + (Addr{1} << 30) + (Addr{k} << 24);
        // Divide the stream across kernels: total work is constant
        // regardless of the kernel count.
        t.memInstrsPerWarp =
            std::max<std::uint64_t>(50, t.memInstrsPerWarp / n);
        kernels.push_back(makeSyntheticKernel(
            spec.abbr + "#" + std::to_string(k), t, spec.numCtas,
            spec.warpsPerCta));
    }
    return kernels;
}

std::vector<KernelInfo>
WorkloadSuite::buildReplayKernels(
    const std::shared_ptr<const TraceReader> &reader)
{
    return makeReplayKernels(reader);
}

std::vector<KernelInfo>
WorkloadSuite::buildReplayKernels(const std::string &path)
{
    return makeReplayKernels(std::make_shared<const TraceReader>(path));
}

std::vector<std::pair<WorkloadSpec, WorkloadSpec>>
WorkloadSuite::multiprogramPairs()
{
    std::vector<std::pair<WorkloadSpec, WorkloadSpec>> pairs;
    for (const auto &s : byClass(WorkloadClass::SharedFriendly)) {
        for (const auto &p : byClass(WorkloadClass::PrivateFriendly))
            pairs.emplace_back(s, p);
    }
    return pairs;
}

} // namespace amsc
