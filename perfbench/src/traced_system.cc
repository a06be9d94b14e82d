#include "traced_system.hh"

#include <algorithm>

#include "common/error.hh"
#include "gpu/cta_scheduler.hh"
#include "noc/network_factory.hh"
#include "workloads/llm_inference.hh"
#include "workloads/suite.hh"

namespace perfbench
{

using namespace amsc;

void
Trace::add(const Trace &o)
{
    for (std::size_t i = 0; i < ns.size(); ++i)
        ns[i] += o.ns[i];
    wallNs += o.wallNs;
    ticks += o.ticks;
    smIssueTicks += o.smIssueTicks;
    nocBusyTicks += o.nocBusyTicks;
    llcBusyTicks += o.llcBusyTicks;
    memBusyTicks += o.memBusyTicks;
    advCalls += o.advCalls;
    kernels += o.kernels;
}

TracedSystem::TracedSystem(const SimConfig &cfg, Trace &trace)
    : cfg_(cfg), trace_(trace)
{
    cfg_.validate();
    if (cfg_.simMode != SimMode::Event || cfg_.checkpointEvery != 0 ||
        cfg_.maxInstructions != 0 || cfg_.timeline ||
        !cfg_.timelineOut.empty() || !cfg_.statsStreamOut.empty() ||
        !cfg_.traceRecordPath.empty() || !cfg_.traceReplayPath.empty())
        throw SimError("traced driver: only sim_mode=event points "
                       "without observers, checkpoints, instruction "
                       "budgets or trace capture are supported");

    // Wiring: GpuSystem::GpuSystem, with the reply handler and the
    // DRAM read callback wrapped in child spans.
    mapping_ =
        std::make_unique<AddressMapping>(cfg_.buildMappingParams());
    net_ = makeNetwork(cfg_.buildNocParams());
    mem_ = std::make_unique<MemorySystem>(
        cfg_.numMcs, cfg_.buildDramParams(), *mapping_, cfg_.memSched);

    const std::uint32_t apps = cfg_.numApps();
    smApp_.assign(cfg_.numSms, 0);
    if (apps > 1) {
        const std::uint32_t spc = cfg_.smsPerCluster();
        for (SmId sm = 0; sm < cfg_.numSms; ++sm)
            smApp_[sm] = static_cast<AppId>((sm % spc) * apps / spc);
    }
    appSms_.resize(apps);
    for (SmId sm = 0; sm < cfg_.numSms; ++sm)
        appSms_[smApp_[sm]].push_back(sm);

    llc_ = std::make_unique<LlcSystem>(
        cfg_.buildLlcParams(), *mapping_, net_.get(), mem_.get(),
        [this](SmId sm) { return smApp_[sm]; },
        [this](SmId sm) { return sm / cfg_.smsPerCluster(); });
    llc_->setHooks(
        [this](bool stalled) {
            smsStalled_ = stalled;
            for (auto &sm : sms_)
                sm->setStalled(stalled);
        },
        [this]() { return net_->drained() && mem_->drained(); });
    mem_->setReadCallback(
        [this](Addr line, std::uint64_t token, Cycle now) {
            Timed t(trace_, Span::OnDramReply);
            llc_->onDramReply(line, token, now);
        });

    sms_.reserve(cfg_.numSms);
    for (SmId id = 0; id < cfg_.numSms; ++id) {
        const ClusterId cluster = id / cfg_.smsPerCluster();
        const AppId app = smApp_[id];
        sms_.push_back(std::make_unique<Sm>(
            cfg_.buildSmParams(id), net_.get(),
            [this, cluster, app](Addr line) {
                return llc_->sliceFor(line, cluster, app);
            }));
        sms_.back()->setDoneCallback([this]() { manageDirty_ = true; });
        sms_.back()->setRetiredCounter(&instrRetired_);
    }
    net_->setReplyHandler([this](const NocMessage &msg, Cycle now) {
        Timed t(trace_, Span::OnReply);
        sms_[msg.dst]->onReply(msg, now);
    });

    programs_.resize(apps);
    appRunning_.assign(apps, false);
    appRetired_.assign(apps, true);
    launchedEver_.assign(apps, false);
}

TracedSystem::~TracedSystem() = default;

void
TracedSystem::install(const SweepPoint &point)
{
    if (point.apps.size() != cfg_.numApps())
        throw SimError("traced driver: point '" + point.label +
                       "' installs its workload through a custom "
                       "setup the driver cannot mirror");
    for (AppId a = 0; a < static_cast<AppId>(point.apps.size()); ++a) {
        const WorkloadSpec &spec = point.apps[a];
        // Scenario::buildPoint marks class apps with a placeholder
        // spec whose abbreviation is the class name.
        if (spec.abbr == "llm_inference") {
            setProgram(a, makeLlmInferenceProgram(
                              llmServingParamsFromConfig(cfg_, a)));
        } else {
            auto kernels =
                WorkloadSuite::buildKernels(spec, cfg_.seed, a);
            setProgram(a, kernels.empty()
                              ? nullptr
                              : std::make_unique<StaticProgram>(
                                    std::move(kernels)));
        }
    }
}

void
TracedSystem::setProgram(AppId app, std::unique_ptr<WorkloadProgram> prog)
{
    programs_[app] = std::move(prog);
    launchedEver_[app] = false;
    unfinishedApps_ = 0;
    for (AppId a = 0; a < programs_.size(); ++a) {
        const bool unfinished = programs_[a] &&
            (appRunning_[a] || !programs_[a]->finished());
        if (unfinished)
            ++unfinishedApps_;
        appRetired_[a] = !unfinished;
    }
    manageDirty_ = true;
}

void
TracedSystem::launchKernel(AppId app, const KernelInfo &kernel)
{
    const std::vector<SmId> &app_sms = appSms_[app];
    const std::uint32_t app_spc = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(app_sms.size()) /
            cfg_.numClusters);
    const auto assignment = assignCtas(
        cfg_.ctaPolicy, kernel.numCtas,
        static_cast<std::uint32_t>(app_sms.size()), app_spc, app_sms);
    {
        Timed t(trace_, Span::SmLaunch);
        for (std::size_t i = 0; i < app_sms.size(); ++i)
            sms_[app_sms[i]]->launchKernel(&kernel, assignment[i], now_);
    }
    appRunning_[app] = true;
    launchedEver_[app] = true;
    bool any_busy = false;
    for (const SmId sm : app_sms)
        any_busy = any_busy || !sms_[sm]->done();
    if (!any_busy)
        manageDirty_ = true;
}

void
TracedSystem::manageKernels()
{
    Timed manage(trace_, Span::Manage);
    programWakeAt_ = kNoCycle;
    for (AppId app = 0; app < programs_.size(); ++app) {
        WorkloadProgram *prog = programs_[app].get();
        if (!prog || appRetired_[app])
            continue;
        if (appRunning_[app]) {
            bool done = true;
            for (const SmId sm : appSms_[app]) {
                if (!sms_[sm]->done()) {
                    done = false;
                    break;
                }
            }
            if (!done)
                continue;
            appRunning_[app] = false;
            Timed t(trace_, Span::NextKernel);
            prog->onKernelDone(now_);
        }

        const KernelInfo *kernel = nullptr;
        {
            Timed t(trace_, Span::NextKernel);
            kernel = prog->nextKernel(now_);
        }
        if (kernel) {
            ++trace_.kernels;
            if (launchedEver_[app]) {
                {
                    Timed t(trace_, Span::SmLaunch);
                    for (const SmId sm : appSms_[app])
                        sms_[sm]->flushL1();
                }
                Timed t(trace_, Span::LlcLaunch);
                llc_->onKernelLaunch(now_);
            }
            launchKernel(app, *kernel);
        } else if (prog->finished()) {
            appRetired_[app] = true;
            --unfinishedApps_;
        } else {
            programWakeAt_ =
                std::min(programWakeAt_, prog->nextEventCycle(now_));
        }
    }
}

bool
TracedSystem::allWorkDone() const
{
    for (AppId app = 0; app < programs_.size(); ++app) {
        if (programs_[app] &&
            (appRunning_[app] || !programs_[app]->finished()))
            return false;
    }
    return true;
}

void
TracedSystem::tickOnce()
{
    if (now_ >= programWakeAt_) {
        programWakeAt_ = kNoCycle;
        manageDirty_ = true;
    }
    // Busy-share probes run between spans, outside every layer's time.
    ++trace_.ticks;
    trace_.nocBusyTicks += !net_->drained();
    trace_.llcBusyTicks += !llc_->drained();
    trace_.memBusyTicks += !mem_->drained();
    for (const auto &sm : sms_)
        trace_.smIssueTicks += sm->nextEventCycle(now_) == now_;

    {
        Timed t(trace_, Span::LlcTick);
        llc_->tick(now_);
    }
    {
        Timed t(trace_, Span::MemTick);
        mem_->tick(now_);
    }
    {
        Timed t(trace_, Span::NetTick);
        net_->tick(now_);
    }
    {
        Timed t(trace_, Span::SmLoop);
        for (auto &sm : sms_)
            sm->tick(now_);
    }
    if (manageDirty_) {
        manageDirty_ = false;
        manageKernels();
    }
    ++now_;
}

Cycle
TracedSystem::eventNextCycle()
{
    // GpuSystem::eventNextCycle(), one span per component.
    ++trace_.advCalls;
    Cycle e = kNoCycle;
    {
        Timed t(trace_, Span::AdvSm);
        for (const auto &sm : sms_) {
            const Cycle se = sm->nextEventCycle(now_);
            if (se <= now_)
                return now_;
            e = std::min(e, se);
        }
    }
    Cycle me = 0;
    {
        Timed t(trace_, Span::AdvMem);
        me = mem_->nextEventCycle(now_);
    }
    if (me <= now_)
        return now_;
    e = std::min(e, me);
    Cycle ne = 0;
    {
        Timed t(trace_, Span::AdvNet);
        ne = net_->nextEventCycle(now_);
    }
    if (ne <= now_)
        return now_;
    e = std::min(e, ne);
    Cycle le = 0;
    {
        Timed t(trace_, Span::AdvLlc);
        le = llc_->nextEventCycle(now_);
    }
    if (le <= now_)
        return now_;
    return std::min(e, le);
}

void
TracedSystem::maybeFastForward()
{
    if (!cfg_.fastForward || !smsStalled_ || manageDirty_)
        return;
    if (!llc_->drained())
        return;
    for (const auto &sm : sms_) {
        if (sm->hasPendingCompletions())
            return;
    }
    Cycle le = 0, ne = 0, me = 0;
    {
        Timed t(trace_, Span::AdvLlc);
        le = llc_->nextEventCycle(now_);
    }
    {
        Timed t(trace_, Span::AdvNet);
        ne = net_->nextEventCycle(now_);
    }
    {
        Timed t(trace_, Span::AdvMem);
        me = mem_->nextEventCycle(now_);
    }
    const Cycle target = std::min({le, ne, me, programWakeAt_});
    if (target == kNoCycle)
        return;
    const Cycle to = std::min(target, cfg_.maxCycles);
    if (to <= now_ + 1)
        return;
    const Cycle skipped = to - now_;
    llc_->advanceIdleCycles(skipped);
    net_->advanceIdleCycles(skipped);
    now_ = to;
    ++jumpCount_;
    jumpedCycles_ += skipped;
}

void
TracedSystem::jumpToNextEvent()
{
    if (manageDirty_ || unfinishedApps_ == 0)
        return;
    if (cfg_.fastForward && smsStalled_) {
        const Cycle before = now_;
        maybeFastForward();
        if (now_ != before)
            return;
    }
    Cycle to = std::min(eventNextCycle(), cfg_.maxCycles);
    to = std::min(to, programWakeAt_);
    if (to <= now_ + 1)
        return;
    const Cycle skipped = to - now_;
    llc_->advanceIdleCycles(skipped);
    net_->advanceIdleCycles(skipped);
    for (auto &sm : sms_)
        sm->advanceIdleCycles(skipped);
    now_ = to;
    ++jumpCount_;
    jumpedCycles_ += skipped;
}

void
TracedSystem::run()
{
    const auto start = Clock::now();
    manageDirty_ = false;
    manageKernels();
    while (now_ < cfg_.maxCycles) {
        jumpToNextEvent();
        if (now_ >= cfg_.maxCycles)
            break;
        tickOnce();
        if (unfinishedApps_ == 0)
            break;
    }
    trace_.wallNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - start)
                         .count();
}

PointStats
TracedSystem::stats() const
{
    SystemView v;
    v.now = now_;
    v.finished = allWorkDone();
    v.net = net_.get();
    v.mem = mem_.get();
    v.llc = llc_.get();
    for (const auto &sm : sms_)
        v.sms.push_back(sm.get());
    v.smApp = smApp_;
    v.numApps = cfg_.numApps();
    for (const auto &prog : programs_)
        v.programs.push_back(prog.get());
    v.jumps = jumpCount_;
    v.jumpedCycles = jumpedCycles_;
    return collectStats(v);
}

} // namespace perfbench
