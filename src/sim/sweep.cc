#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hh"
#include "common/log.hh"
#include "obs/recorder.hh"
#include "trace/recording_gen.hh"

namespace amsc
{

SweepRunner::SweepRunner(unsigned num_threads)
    : threads_(num_threads == 0 ? defaultThreads() : num_threads)
{
}

unsigned
SweepRunner::defaultThreads()
{
    if (const char *env = std::getenv("AMSC_SWEEP_THREADS")) {
        const long n = std::atol(env);
        if (n > 0)
            return static_cast<unsigned>(n);
        warn("AMSC_SWEEP_THREADS='%s' ignored", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
SweepRunner::parallelFor(
    std::size_t n, const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(threads_, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    const auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                // Stop handing out further work.
                next.store(n, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

namespace
{

/**
 * Install @p point's workload. The trace keys redirect app 0: it
 * replays cfg.traceReplayPath, or its kernels are wrapped so every
 * warp stream is captured into @p writer.
 */
void
installWorkload(GpuSystem &gpu, const SweepPoint &point,
                const std::shared_ptr<TraceWriter> &writer)
{
    const SimConfig &cfg = point.cfg;
    if (point.setup) {
        point.setup(gpu);
        return;
    }
    // A replay needs no app 0 spec: the trace is the workload.
    const std::size_t apps = std::max<std::size_t>(
        point.apps.size(), cfg.traceReplayPath.empty() ? 0 : 1);
    for (AppId a = 0; a < static_cast<AppId>(apps); ++a) {
        std::vector<KernelInfo> kernels =
            a == 0 && !cfg.traceReplayPath.empty()
            ? WorkloadSuite::buildReplayKernels(cfg.traceReplayPath)
            : WorkloadSuite::buildKernels(point.apps[a], cfg.seed, a);
        if (a == 0 && writer)
            kernels = wrapKernelsForRecording(kernels, writer);
        gpu.setWorkload(a, std::move(kernels));
    }
}

} // namespace

RunResult
SweepRunner::runPoint(const SweepPoint &point)
{
    const SimConfig &cfg = point.cfg;
    if (point.setup &&
        !(cfg.traceRecordPath.empty() && cfg.traceReplayPath.empty()))
        throw ConfigError(strfmt(
            "point '%s': trace_record and trace_replay apply to suite "
            "and synthetic apps, not to replay= or class= apps",
            point.label.c_str()));
    // A recording's writer outlives the GpuSystem: destroying the
    // system flushes every live warp stream into it.
    std::shared_ptr<TraceWriter> writer;
    if (!cfg.traceRecordPath.empty())
        writer = std::make_shared<TraceWriter>(cfg.traceRecordPath);
    RunResult r;
    {
        GpuSystem gpu(cfg);
        installWorkload(gpu, point, writer);
        if (point.onBuilt)
            point.onBuilt(gpu);
        // Observability is per point: the recorder exists only when
        // this point's config enables it, and the sinks are
        // pull-only, so results stay bit-identical either way
        // (tests/test_obs.cc).
        const auto recorder = obs::TimelineRecorder::fromConfig(gpu);
        r = gpu.run();
        if (recorder)
            recorder->finish();
        if (point.post)
            point.post(gpu, r);
    }
    if (writer) {
        writer->setRunSummary(summarizeRun(r));
        writer->finalize();
        if (!r.finishedWork)
            warn("%s: recorded run hit its cycle horizon; warps "
                 "mid-stream were truncated and a replay will finish "
                 "early",
                 writer->path().c_str());
    }
    return r;
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepPoint> &points,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)> &progress)
    const
{
    return run(points, SweepOptions{}, progress);
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepPoint> &points,
                 const SweepOptions &options,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)> &progress)
    const
{
    if (options.skip && options.skip->size() != points.size())
        throw SimError("sweep skip mask size mismatch");
    std::size_t live = points.size();
    if (options.skip) {
        for (const char s : *options.skip)
            live -= (s != 0);
    }
    std::vector<RunResult> results(points.size());
    std::atomic<std::size_t> done{0};
    std::mutex hook_mutex;
    parallelFor(points.size(), [&](std::size_t i) {
        if (options.skip && (*options.skip)[i])
            return;
        std::string error;
        if (points[i].cfg.sweepOnError == SweepOnError::Skip) {
            try {
                results[i] = runPoint(points[i]);
            } catch (const SimError &e) {
                results[i] = RunResult{};
                error = e.what();
            }
        } else {
            results[i] = runPoint(points[i]);
        }
        if (options.onResult || progress) {
            const std::size_t n =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            std::lock_guard<std::mutex> lock(hook_mutex);
            if (options.onResult)
                options.onResult(i, results[i], error);
            if (progress)
                progress(n, live, i);
        }
    });
    return results;
}

} // namespace amsc
