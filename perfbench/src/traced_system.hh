/**
 * @file
 * The benchmark's traced driver.
 *
 * TracedSystem assembles one simulation point from the public layer
 * classes exactly as GpuSystem wires them (makeNetwork, MemorySystem,
 * LlcSystem::setHooks, Sm, assignCtas, WorkloadProgram) and drives
 * them in GpuSystem::tickOnce() order plus the sim_mode=event jump,
 * wrapping every call into a layer in a steady_clock span. The reply
 * handler and the DRAM read callback are re-installed as child spans,
 * so a layer's self time is its span minus its children. Spans are
 * summed per name in memory and read out when the point ends.
 *
 * The driver must reproduce GpuSystem::run() bit for bit; the caller
 * compares collectStats() of both (see point_stats.hh). It covers
 * what the benchmark's points use -- event mode, no observers, no
 * checkpoint grid, no instruction budget, no trace capture -- and
 * throws SimError on any other configuration.
 */

#ifndef PERFBENCH_TRACED_SYSTEM_HH
#define PERFBENCH_TRACED_SYSTEM_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/sm.hh"
#include "llc/llc_system.hh"
#include "mem/address_mapping.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "point_stats.hh"
#include "sim/sim_config.hh"
#include "sim/sweep.hh"
#include "workloads/program.hh"

namespace perfbench
{

/** Span names. Children are listed after the span that contains them. */
enum class Span : std::uint8_t
{
    LlcTick,        ///< LlcSystem::tick
    MemTick,        ///< MemorySystem::tick
    OnDramReply,    ///<   child of MemTick: LlcSystem::onDramReply
    NetTick,        ///< Network::tick
    OnReply,        ///<   child of NetTick: Sm::onReply
    SmLoop,         ///< Sm::tick over all SMs
    AdvSm,          ///< Sm::nextEventCycle over the SMs
    AdvMem,         ///< MemorySystem::nextEventCycle
    AdvNet,         ///< Network::nextEventCycle
    AdvLlc,         ///< LlcSystem::nextEventCycle
    Manage,         ///< kernel management
    NextKernel,     ///<   child: WorkloadProgram::nextKernel/onKernelDone
    SmLaunch,       ///<   child: Sm::flushL1/launchKernel
    LlcLaunch,      ///<   child: LlcSystem::onKernelLaunch
    Count
};

/** Per-name span totals plus the busy-share probe counts. */
struct Trace
{
    std::array<std::int64_t, static_cast<std::size_t>(Span::Count)> ns{};
    /** Wall time of run(), ns. */
    std::int64_t wallNs = 0;
    /** Live (not jumped) ticks. */
    std::uint64_t ticks = 0;
    /** Sum over live ticks of SMs whose nextEventCycle(now) == now. */
    std::uint64_t smIssueTicks = 0;
    std::uint64_t nocBusyTicks = 0;
    std::uint64_t llcBusyTicks = 0;
    std::uint64_t memBusyTicks = 0;
    /** Global next-event evaluations (event-mode advertisement). */
    std::uint64_t advCalls = 0;
    /** Kernels the programs handed out. */
    std::uint64_t kernels = 0;

    std::int64_t
    at(Span s) const
    {
        return ns[static_cast<std::size_t>(s)];
    }

    void add(const Trace &o);
};

class TracedSystem
{
  public:
    TracedSystem(const amsc::SimConfig &cfg, Trace &trace);
    ~TracedSystem();

    TracedSystem(const TracedSystem &) = delete;
    TracedSystem &operator=(const TracedSystem &) = delete;

    /**
     * Install the workload of @p point the way SweepRunner::runPoint
     * and the scenario's setup closure do: suite and synthetic apps
     * as static kernel chains, `class = llm_inference` apps as
     * request-driver programs.
     */
    void install(const amsc::SweepPoint &point);

    /** GpuSystem::run() with every layer call timed. */
    void run();

    PointStats stats() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** Times one call into a layer; adds to the span's total. */
    class Timed
    {
      public:
        Timed(Trace &t, Span s) : t_(t), s_(s), start_(Clock::now()) {}
        ~Timed()
        {
            const auto i = static_cast<std::size_t>(s_);
            t_.ns[i] += std::chrono::duration_cast<
                            std::chrono::nanoseconds>(Clock::now() -
                                                      start_)
                            .count();
        }
        Timed(const Timed &) = delete;
        Timed &operator=(const Timed &) = delete;

      private:
        Trace &t_;
        Span s_;
        Clock::time_point start_;
    };

    void setProgram(AppId app,
                    std::unique_ptr<amsc::WorkloadProgram> prog);
    void tickOnce();
    void manageKernels();
    void launchKernel(AppId app, const amsc::KernelInfo &kernel);
    bool allWorkDone() const;
    Cycle eventNextCycle();
    void maybeFastForward();
    void jumpToNextEvent();

    amsc::SimConfig cfg_;
    Trace &trace_;
    std::unique_ptr<amsc::AddressMapping> mapping_;
    std::unique_ptr<amsc::Network> net_;
    std::unique_ptr<amsc::MemorySystem> mem_;
    std::unique_ptr<amsc::LlcSystem> llc_;
    std::vector<std::unique_ptr<amsc::Sm>> sms_;
    std::vector<AppId> smApp_;
    std::vector<std::vector<amsc::SmId>> appSms_;

    std::vector<std::unique_ptr<amsc::WorkloadProgram>> programs_;
    std::vector<bool> appRunning_;
    std::vector<bool> appRetired_;
    std::vector<bool> launchedEver_;
    Cycle programWakeAt_ = amsc::kNoCycle;

    Cycle now_ = 0;
    bool smsStalled_ = false;
    bool manageDirty_ = true;
    std::uint32_t unfinishedApps_ = 0;
    std::uint64_t instrRetired_ = 0;
    std::uint64_t jumpCount_ = 0;
    Cycle jumpedCycles_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_SYSTEM_HH
