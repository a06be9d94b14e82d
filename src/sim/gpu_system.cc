#include "sim/gpu_system.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/atomic_io.hh"
#include "common/log.hh"
#include "gpu/cta_scheduler.hh"
#include "noc/network_factory.hh"
#include "sim/checkpoint.hh"

namespace amsc
{

bool
identicalResults(const RunResult &a, const RunResult &b)
{
    // Field-drift guards: this function is the determinism gate for
    // the tests, `amsc fuzz` and `trace_tool verify`. Adding a
    // field to any compared struct must extend the matching lambda
    // below -- on the LP64 CI platform these asserts force that
    // update (other ABIs may pad differently, so they are scoped).
#ifdef __LP64__
    static_assert(sizeof(LlcSystemStats) == 11 * sizeof(std::uint64_t),
                  "update sameCtrl for the new LlcSystemStats field");
    static_assert(sizeof(RouterActivity) == 80,
                  "update sameRouter for the new RouterActivity field");
    static_assert(sizeof(LinkActivity) == 24,
                  "update sameLink for the new LinkActivity field");
    static_assert(sizeof(GpuActivity) == 48,
                  "update the GpuActivity compare for the new field");
#endif

    const auto sameCtrl = [](const LlcSystemStats &x,
                             const LlcSystemStats &y) {
        return x.profileWindows == y.profileWindows &&
            x.decisionsPrivate == y.decisionsPrivate &&
            x.decisionsShared == y.decisionsShared &&
            x.rule1Fires == y.rule1Fires &&
            x.rule2Fires == y.rule2Fires &&
            x.atomicVetoes == y.atomicVetoes &&
            x.transitionsToPrivate == y.transitionsToPrivate &&
            x.transitionsToShared == y.transitionsToShared &&
            x.reconfigStallCycles == y.reconfigStallCycles &&
            x.cyclesPrivate == y.cyclesPrivate &&
            x.cyclesShared == y.cyclesShared;
    };
    const auto sameRouter = [](const RouterActivity &x,
                               const RouterActivity &y) {
        return x.numInPorts == y.numInPorts &&
            x.numOutPorts == y.numOutPorts && x.numVcs == y.numVcs &&
            x.vcDepthFlits == y.vcDepthFlits &&
            x.channelWidthBytes == y.channelWidthBytes &&
            x.gateable == y.gateable &&
            x.bufferWrites == y.bufferWrites &&
            x.bufferReads == y.bufferReads &&
            x.xbarTraversals == y.xbarTraversals &&
            x.allocRounds == y.allocRounds &&
            x.activeCycles == y.activeCycles &&
            x.gatedCycles == y.gatedCycles &&
            x.bypassTraversals == y.bypassTraversals;
    };
    const auto sameLink = [](const LinkActivity &x,
                             const LinkActivity &y) {
        return x.lengthMm == y.lengthMm &&
            x.widthBytes == y.widthBytes &&
            x.flitTraversals == y.flitTraversals;
    };

    if (a.cycles != b.cycles || a.instructions != b.instructions ||
        a.ipc != b.ipc || a.appIpc != b.appIpc ||
        a.appInstructions != b.appInstructions ||
        a.finishedWork != b.finishedWork ||
        a.llcReadMissRate != b.llcReadMissRate ||
        a.llcResponseRate != b.llcResponseRate ||
        a.llcAccesses != b.llcAccesses ||
        a.llcBypasses != b.llcBypasses ||
        a.dramAccesses != b.dramAccesses ||
        a.dramRowHitRate != b.dramRowHitRate ||
        a.dramRefreshes != b.dramRefreshes ||
        a.dramQueueRejects != b.dramQueueRejects ||
        a.dramWriteDrains != b.dramWriteDrains ||
        a.avgRequestLatency != b.avgRequestLatency ||
        a.avgReplyLatency != b.avgReplyLatency ||
        a.finalMode != b.finalMode ||
        a.sharingBuckets != b.sharingBuckets)
        return false;
    if (!sameCtrl(a.llcCtrl, b.llcCtrl))
        return false;
    if (a.nocActivity.routers.size() != b.nocActivity.routers.size() ||
        a.nocActivity.links.size() != b.nocActivity.links.size())
        return false;
    for (std::size_t i = 0; i < a.nocActivity.routers.size(); ++i) {
        if (!sameRouter(a.nocActivity.routers[i],
                        b.nocActivity.routers[i]))
            return false;
    }
    for (std::size_t i = 0; i < a.nocActivity.links.size(); ++i) {
        if (!sameLink(a.nocActivity.links[i], b.nocActivity.links[i]))
            return false;
    }
    if (a.servingActive != b.servingActive ||
        a.requestsCompleted != b.requestsCompleted ||
        a.reqLatencyP50 != b.reqLatencyP50 ||
        a.reqLatencyP99 != b.reqLatencyP99 ||
        a.batchOccupancy != b.batchOccupancy ||
        a.queueDepthMean != b.queueDepthMean)
        return false;
    return a.gpuActivity.cycles == b.gpuActivity.cycles &&
        a.gpuActivity.instructions == b.gpuActivity.instructions &&
        a.gpuActivity.l1Accesses == b.gpuActivity.l1Accesses &&
        a.gpuActivity.llcAccesses == b.gpuActivity.llcAccesses &&
        a.gpuActivity.dramAccesses == b.gpuActivity.dramAccesses &&
        a.gpuActivity.nocEnergyUj == b.gpuActivity.nocEnergyUj;
}

GpuSystem::GpuSystem(const SimConfig &config) : config_(config)
{
    config_.validate();

    mapping_ =
        std::make_unique<AddressMapping>(config_.buildMappingParams());
    net_ = makeNetwork(config_.buildNocParams());
    mem_ = std::make_unique<MemorySystem>(
        config_.numMcs, config_.buildDramParams(), *mapping_,
        config_.memSched);

    // SM -> application partitioning: single app owns everything;
    // multi-program splits each cluster evenly (paper Fig 9).
    const std::uint32_t apps = config_.numApps();
    smApp_.assign(config_.numSms, 0);
    if (apps > 1) {
        const std::uint32_t spc = config_.smsPerCluster();
        for (SmId sm = 0; sm < config_.numSms; ++sm) {
            const std::uint32_t local = sm % spc;
            smApp_[sm] = static_cast<AppId>(
                local * apps / spc);
        }
    }
    appSms_.resize(apps);
    for (SmId sm = 0; sm < config_.numSms; ++sm)
        appSms_[smApp_[sm]].push_back(sm);

    llc_ = std::make_unique<LlcSystem>(
        config_.buildLlcParams(), *mapping_, net_.get(), mem_.get(),
        [this](SmId sm) { return smApp_[sm]; },
        [this](SmId sm) { return sm / config_.smsPerCluster(); });

    // The LLC toggles the stall from inside its tick, before this
    // cycle's SM walk; an unstalled SM with issuable work wakes.
    llc_->setHooks(
        [this](bool stalled) {
            smsStalled_ = stalled;
            for (SmId id = 0; id < sms_.size(); ++id) {
                settleSm(id, now_);
                sms_[id]->setStalled(stalled);
                if (sms_[id]->nextEventCycle(now_) != kNoCycle)
                    activeSms_.assign(id, true);
            }
        },
        [this]() { return net_->drained() && mem_->drained(); });

    mem_->setReadCallback(
        [this](Addr line, std::uint64_t token, Cycle now) {
            llc_->onDramReply(line, token, now);
        });

    sms_.reserve(config_.numSms);
    for (SmId id = 0; id < config_.numSms; ++id) {
        const ClusterId cluster = id / config_.smsPerCluster();
        const AppId app = smApp_[id];
        sms_.push_back(std::make_unique<Sm>(
            config_.buildSmParams(id), net_.get(),
            [this, cluster, app](Addr line) {
                return llc_->sliceFor(line, cluster, app);
            }));
        sms_.back()->setDoneCallback([this]() {
            manageDirty_ = true;
        });
        sms_.back()->setRetiredCounter(&instrRetired_);
    }
    activeSms_.resize(sms_.size());
    smIdleFrom_.assign(sms_.size(), 0);

    // Replies go straight from the NoC into the owning SM the cycle
    // they become deliverable (no per-SM polling in tickOnce), and
    // wake it for this cycle's SM walk.
    net_->setReplyHandler([this](const NocMessage &msg, Cycle now) {
        settleSm(msg.dst, now);
        sms_[msg.dst]->onReply(msg, now);
        activeSms_.assign(msg.dst, true);
    });

    programs_.resize(apps);
    appRunning_.assign(apps, false);
    appRetired_.assign(apps, true);
    launchedEver_.assign(apps, false);
}

GpuSystem::~GpuSystem() = default;

Sm &
GpuSystem::sm(SmId id)
{
    settleSm(id, now_);
    return *sms_[id];
}

void
GpuSystem::settleSm(SmId id, Cycle upto) const
{
    Cycle &from = smIdleFrom_[id];
    if (upto > from) {
        sms_[id]->advanceIdleCycles(upto - from);
        from = upto;
    }
}

void
GpuSystem::settleAllSms() const
{
    for (SmId id = 0; id < sms_.size(); ++id)
        settleSm(id, now_);
}

void
GpuSystem::setWorkload(AppId app, std::vector<KernelInfo> kernels)
{
    setProgram(app,
               kernels.empty()
                   ? nullptr
                   : std::make_unique<StaticProgram>(
                         std::move(kernels)));
}

void
GpuSystem::setProgram(AppId app,
                      std::unique_ptr<WorkloadProgram> prog)
{
    if (app >= programs_.size())
        fatal("setProgram: app %u out of range", app);
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
GpuSystem::launchKernel(AppId app, const KernelInfo &kernel,
                        Cycle sm_from)
{
    const std::vector<SmId> &app_sms = appSms_[app];
    // The app's SM list is cluster-major; its per-cluster width is
    // its share of each cluster (all of it for single-program runs).
    const std::uint32_t app_spc = std::max<std::uint32_t>(
        1,
        static_cast<std::uint32_t>(app_sms.size()) /
            config_.numClusters);
    const auto assignment = assignCtas(
        config_.ctaPolicy, kernel.numCtas,
        static_cast<std::uint32_t>(app_sms.size()), app_spc, app_sms);
    for (std::size_t i = 0; i < app_sms.size(); ++i) {
        const SmId id = app_sms[i];
        settleSm(id, sm_from);
        sms_[id]->launchKernel(&kernel, assignment[i], now_);
        activeSms_.assign(id, true);
    }
    appRunning_[app] = true;
    launchedEver_[app] = true;
    // A kernel that assigns no work (or whose streams are all empty)
    // produces no SM completion event; re-arm kernel management so
    // the next cycle advances past it, as the per-cycle scan did.
    bool any_busy = false;
    for (const SmId sm : app_sms)
        any_busy = any_busy || !sms_[sm]->done();
    if (!any_busy)
        manageDirty_ = true;
}

void
GpuSystem::manageKernels(Cycle sm_from)
{
    programWakeAt_ = kNoCycle;
    for (AppId app = 0; app < programs_.size(); ++app) {
        WorkloadProgram *prog = programs_[app].get();
        if (!prog || appRetired_[app])
            continue;

        if (appRunning_[app]) {
            // Check whether the running kernel finished on all SMs.
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
            prog->onKernelDone(now_);
        }

        const KernelInfo *kernel = prog->nextKernel(now_);
        if (kernel) {
            if (launchedEver_[app]) {
                // Kernel boundary: software coherence flushes the
                // L1s and (if private) the LLC; the controller
                // re-profiles. The very first launch of an app skips
                // it, exactly like the former fixed-list path.
                for (const SmId sm : appSms_[app])
                    sms_[sm]->flushL1();
                llc_->onKernelLaunch(now_);
            }
            launchKernel(app, *kernel, sm_from);
        } else if (prog->finished()) {
            appRetired_[app] = true;
            --unfinishedApps_;
        } else {
            // Idle but not finished: the program is waiting on a
            // future arrival. Arm the wake clamp so both cycle-core
            // drivers re-run kernel management at exactly that cycle.
            programWakeAt_ =
                std::min(programWakeAt_, prog->nextEventCycle(now_));
        }
    }
}

bool
GpuSystem::allWorkDone() const
{
    for (AppId app = 0; app < programs_.size(); ++app) {
        if (!programs_[app])
            continue;
        if (appRunning_[app] || !programs_[app]->finished())
            return false;
    }
    return true;
}

void
GpuSystem::setCycleObserver(Cycle period, CycleObserver obs)
{
    cycleObs_ = std::move(obs);
    obsPeriod_ = period;
    nextObsAt_ =
        (cycleObs_ && obsPeriod_ > 0) ? now_ + obsPeriod_ : kNoCycle;
}

void
GpuSystem::tickOnce()
{
    // A program arrival due this cycle re-runs kernel management in
    // this very tick; with no driver waiting the cost is one compare
    // against kNoCycle (the observer idiom below).
    if (now_ >= programWakeAt_) {
        programWakeAt_ = kNoCycle;
        manageDirty_ = true;
    }
    llc_->tick(now_);
    mem_->tick(now_);
    net_->tick(now_); // pushes delivered replies into the SMs
    activeSms_.walk([&](std::size_t i) {
        settleSm(i, now_);
        Sm &sm = *sms_[i];
        sm.tick(now_);
        smIdleFrom_[i] = now_ + 1;
        return sm.nextEventCycle(now_ + 1) != kNoCycle;
    });
    if (manageDirty_) {
        manageDirty_ = false;
        manageKernels(now_ + 1);
    }
    ++now_;
    // Disabled observers cost exactly this compare (nextObsAt_ =
    // kNoCycle). Fast-forward jumps coalesce into one late sample.
    if (now_ >= nextObsAt_) {
        cycleObs_(now_);
        while (nextObsAt_ <= now_)
            nextObsAt_ += obsPeriod_;
    }
#ifndef NDEBUG
    checkActiveSets();
#endif
}

void
GpuSystem::step(Cycle n)
{
    for (Cycle i = 0; i < n; ++i)
        tickOnce();
}

void
GpuSystem::maybeFastForward()
{
    if (!config_.fastForward || !smsStalled_)
        return;
    // A pending kernel-management event must be processed by the next
    // tick, exactly as the per-cycle loop would.
    if (manageDirty_)
        return;
    // An exhausted instruction budget must still terminate the run at
    // the next 128-cycle check, not after the skipped range.
    if (config_.maxInstructions != 0 &&
        instrRetired_ >= config_.maxInstructions)
        return;
    // In-flight L1 hit completions retire instructions even while the
    // SMs are stalled; slices with queued work pop it cycle by cycle.
    // (An SM with completions in flight is active.)
    if (!llc_->drained() ||
        activeSms_.anyOf([&](std::size_t i) {
            return sms_[i]->hasPendingCompletions();
        }))
        return;
    // Decline while a DRAM request is queued, so these jumps, and the
    // observer samples and checkpoints they defer, do not depend on
    // the controllers' pick gate. The event driver's grid-clamped jump
    // still skips the gated cycles.
    if (mem_->anyQueued())
        return;
    // A pending program arrival bounds the jump: the tick at the wake
    // cycle must run live so kernel management fires on schedule.
    const Cycle target = std::min({llc_->nextEventCycle(now_),
                                   net_->nextEventCycle(now_),
                                   mem_->nextEventCycle(now_),
                                   programWakeAt_});
    if (target == kNoCycle)
        return;
    const Cycle to = std::min(target, config_.maxCycles);
    if (to <= now_ + 1)
        return;
    // Ticks in [now_, to) are no-ops apart from per-cycle activity
    // counters; account those and jump. The tick at `to` runs live.
    const Cycle skipped = to - now_;
    llc_->advanceIdleCycles(skipped);
    net_->advanceIdleCycles(skipped);
    now_ = to;
    ++jumpCount_;
    jumpedCycles_ += skipped;
}

Cycle
GpuSystem::eventNextCycle() const
{
    // SMs first: while any scheduler can issue the minimum is `now`,
    // and the early exit keeps the busy-phase overhead near one
    // inlined compare per call. An inactive SM has no event.
    Cycle e = kNoCycle;
    const bool sm_due = activeSms_.anyOf([&](std::size_t i) {
        const Cycle se = sms_[i]->nextEventCycle(now_);
        e = std::min(e, se);
        return se <= now_;
    });
    if (sm_due)
        return now_;
    const Cycle me = mem_->nextEventCycle(now_);
    if (me <= now_)
        return now_;
    e = std::min(e, me);
    const Cycle ne = net_->nextEventCycle(now_);
    if (ne <= now_)
        return now_;
    e = std::min(e, ne);
    const Cycle le = llc_->nextEventCycle(now_);
    if (le <= now_)
        return now_;
    return std::min(e, le);
}

void
GpuSystem::jumpToNextEvent()
{
    // The next tick is never skippable while kernel management is
    // pending, and the loop exits on the next tick once all work is
    // done (the empty-workload run must still tick exactly once).
    if (manageDirty_ || unfinishedApps_ == 0)
        return;
    if (config_.fastForward && smsStalled_) {
        // Replicate the tick-mode fast-forward jump bit for bit --
        // including its deferral of observer samples and checkpoints
        // to the first live tick past the jump. If it declines, the
        // grid-clamped generic jump below still applies.
        const Cycle before = now_;
        maybeFastForward();
        if (now_ != before)
            return;
    }
    Cycle to = std::min(eventNextCycle(), config_.maxCycles);
    // A waiting request driver's next arrival is an exact event: the
    // tick at the wake cycle runs live (tickOnce re-arms kernel
    // management at its top), so landing *on* it matches tick mode.
    to = std::min(to, programWakeAt_);
    // Land one cycle short of each grid point the tick loop honors:
    // the live tick there brings now_ onto the grid with identical
    // state, so the observer fires, the checkpoint is written and
    // the instruction-budget check breaks on exactly the tick-mode
    // cycles. (Both grids hold nextAt > now_ outside a tick.)
    if (nextObsAt_ != kNoCycle)
        to = std::min(to, nextObsAt_ - 1);
    if (nextCkptAt_ != kNoCycle)
        to = std::min(to, nextCkptAt_ - 1);
    if (config_.maxInstructions != 0 &&
        instrRetired_ >= config_.maxInstructions)
        to = std::min(to, (((now_ >> 7) + 1) << 7) - 1);
    if (to <= now_ + 1)
        return;
    // Ticks in [now_, to) are no-ops apart from per-cycle activity
    // counters; account those and jump (the SMs settle lazily). The
    // tick at `to` runs live.
    const Cycle skipped = to - now_;
    llc_->advanceIdleCycles(skipped);
    net_->advanceIdleCycles(skipped);
    now_ = to;
    ++jumpCount_;
    jumpedCycles_ += skipped;
}

RunResult
GpuSystem::run()
{
    if (!started_) {
        started_ = true;
        manageDirty_ = false;
        manageKernels(now_); // initial launches
    }
    // Checkpoint grid points are absolute cycle numbers, so a
    // restored run continues the same schedule.
    nextCkptAt_ = kNoCycle;
    if (config_.checkpointEvery != 0) {
        nextCkptAt_ = (now_ / config_.checkpointEvery + 1) *
            config_.checkpointEvery;
    }
    const bool event_mode = config_.simMode == SimMode::Event;
    while (now_ < config_.maxCycles) {
        if (event_mode) {
            jumpToNextEvent();
            if (now_ >= config_.maxCycles)
                break;
        } else if (smsStalled_) {
            maybeFastForward();
            if (now_ >= config_.maxCycles)
                break;
        }
        tickOnce();
        if (now_ >= nextCkptAt_) {
            writeCheckpointFile();
            while (nextCkptAt_ <= now_)
                nextCkptAt_ += config_.checkpointEvery;
        }
        if (unfinishedApps_ == 0)
            break;
        if (config_.maxInstructions != 0 && (now_ & 127) == 0 &&
            instrRetired_ >= config_.maxInstructions)
            break;
    }
    settleAllSms();
    return collect();
}

RunResult
GpuSystem::collect() const
{
    RunResult r;
    r.cycles = now_;
    r.instructions = instrRetired_;
    r.ipc = now_ == 0 ? 0.0
                      : static_cast<double>(r.instructions) /
            static_cast<double>(now_);
    r.finishedWork = allWorkDone();

    const std::uint32_t apps = config_.numApps();
    r.appInstructions.assign(apps, 0);
    for (const auto &sm : sms_)
        r.appInstructions[smApp_[sm->id()]] +=
            sm->stats().instructions;
    r.appIpc.assign(apps, 0.0);
    for (AppId a = 0; a < apps; ++a) {
        r.appIpc[a] = now_ == 0
            ? 0.0
            : static_cast<double>(r.appInstructions[a]) /
                static_cast<double>(now_);
    }

    r.llcReadMissRate = llc_->aggregateReadMissRate();
    r.llcAccesses = llc_->totalAccesses();
    r.llcBypasses = llc_->totalBypasses();
    r.llcResponseRate = now_ == 0
        ? 0.0
        : static_cast<double>(llc_->totalResponses()) /
            static_cast<double>(now_);
    r.dramAccesses = mem_->totalAccesses();
    const McStats dram = mem_->aggregateStats();
    r.dramRowHitRate = dram.rowHitRate();
    r.dramRefreshes = dram.refreshes;
    r.dramQueueRejects = dram.queueFullRejects;
    r.dramWriteDrains = dram.writeDrainEntries;
    r.avgRequestLatency = net_->requestStats().avgLatency();
    r.avgReplyLatency = net_->replyStats().avgLatency();

    r.finalMode = llc_->mode(0);
    r.llcCtrl = llc_->stats();
    for (std::size_t b = 0; b < 4; ++b)
        r.sharingBuckets[b] = llc_->sharingTracker().bucketFraction(b);

    r.nocActivity = net_->activity();

    r.gpuActivity.cycles = now_;
    r.gpuActivity.instructions = r.instructions;
    std::uint64_t l1_accesses = 0;
    for (const auto &sm : sms_)
        l1_accesses += sm->l1().stats().accesses();
    r.gpuActivity.l1Accesses = l1_accesses;
    r.gpuActivity.llcAccesses = r.llcAccesses;
    r.gpuActivity.dramAccesses = r.dramAccesses;

    // Open-loop serving metrics, merged across request-driver apps.
    std::vector<std::uint64_t> lat;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    std::uint64_t occ_sum = 0;
    std::uint64_t qdepth_sum = 0;
    for (const auto &prog : programs_) {
        const ServingStats *s =
            prog ? prog->servingStats() : nullptr;
        if (!s)
            continue;
        r.servingActive = true;
        completed += s->requestsCompleted;
        batches += s->batchesLaunched;
        occ_sum += s->batchOccupancySum;
        qdepth_sum += s->queueDepthSum;
        lat.insert(lat.end(), s->latencies.begin(),
                   s->latencies.end());
    }
    if (r.servingActive) {
        r.requestsCompleted = completed;
        std::sort(lat.begin(), lat.end());
        // Nearest-rank percentile: deterministic, no interpolation.
        const auto pct = [&lat](double p) {
            if (lat.empty())
                return 0.0;
            std::size_t idx = static_cast<std::size_t>(std::ceil(
                p * static_cast<double>(lat.size())));
            idx = idx == 0 ? 0 : idx - 1;
            if (idx >= lat.size())
                idx = lat.size() - 1;
            return static_cast<double>(lat[idx]);
        };
        r.reqLatencyP50 = pct(0.50);
        r.reqLatencyP99 = pct(0.99);
        r.batchOccupancy = batches == 0
            ? 0.0
            : static_cast<double>(occ_sum) /
                static_cast<double>(batches);
        r.queueDepthMean = batches == 0
            ? 0.0
            : static_cast<double>(qdepth_sum) /
                static_cast<double>(batches);
    }
    return r;
}

const KernelInfo *
GpuSystem::activeKernelOf(AppId app) const
{
    return programs_[app] ? programs_[app]->currentKernel() : nullptr;
}

void
GpuSystem::savePayload(CkptWriter &w) const
{
    settleAllSms();
    w.u64(now_);
    w.b(started_);
    w.b(smsStalled_);
    w.b(manageDirty_);
    w.u32(unfinishedApps_);
    w.u64(instrRetired_);
    w.u64(programWakeAt_);
    ckptValue(w, appRunning_);
    ckptValue(w, appRetired_);
    ckptValue(w, launchedEver_);
    // Program state (chain position, driver queues/RNG). The
    // programs themselves -- the kernel factories -- must be
    // re-supplied through setWorkload()/setProgram() before restore;
    // presence flags guard against a mismatched workload description.
    w.varint(programs_.size());
    for (const auto &prog : programs_) {
        w.b(prog != nullptr);
        if (prog)
            prog->saveCkpt(w);
    }
    for (const auto &sm : sms_) {
        sm->saveCkpt(w);
    }
    net_->saveCkpt(w);
    mem_->saveCkpt(w);
    llc_->saveCkpt(w);
}

void
GpuSystem::checkpoint(std::ostream &os) const
{
    CkptWriter w;
    savePayload(w);
    checkedStreamWrite(os, frameCheckpoint(config_, w.buffer()),
                       "<checkpoint>");
}

void
GpuSystem::writeCheckpointFile() const
{
    CkptWriter w;
    savePayload(w);
    writeFileAtomic(config_.checkpointPath,
                    frameCheckpoint(config_, w.buffer()));
}

void
GpuSystem::restore(std::istream &is)
{
    const std::string bytes = readStreamBytes(is, "<checkpoint>");
    const std::vector<std::uint8_t> payload =
        unframeCheckpoint(bytes, config_, "<checkpoint>");
    CkptReader r(payload.data(), payload.size());
    now_ = r.u64();
    started_ = r.b();
    smsStalled_ = r.b();
    manageDirty_ = r.b();
    unfinishedApps_ = r.u32();
    instrRetired_ = r.u64();
    programWakeAt_ = r.u64();
    ckptValue(r, appRunning_);
    ckptValue(r, appRetired_);
    ckptValue(r, launchedEver_);
    if (appRunning_.size() != programs_.size() ||
        appRetired_.size() != programs_.size() ||
        launchedEver_.size() != programs_.size())
        r.fail("application count mismatch");
    if (r.varint() != programs_.size())
        r.fail("workload count mismatch");
    for (std::size_t a = 0; a < programs_.size(); ++a) {
        if (r.b() != (programs_[a] != nullptr))
            r.fail("workload program mismatch: apply the recorded "
                   "setWorkload()/setProgram() calls before restore");
        if (programs_[a])
            programs_[a]->loadCkpt(r);
    }
    for (SmId id = 0; id < sms_.size(); ++id) {
        Sm &sm = *sms_[id];
        sm.loadCkpt(r, activeKernelOf(smApp_[id]));
        // The saved counters were settled up to now_.
        smIdleFrom_[id] = now_;
        activeSms_.assign(id, sm.nextEventCycle(now_) != kNoCycle);
    }
    net_->loadCkpt(r);
    mem_->loadCkpt(r);
    llc_->loadCkpt(r);
    if (!r.atEnd())
        r.fail("trailing bytes after checkpoint payload");
    // Re-arm the cycle observer on its absolute sampling grid.
    if (cycleObs_ && obsPeriod_ > 0) {
        nextObsAt_ = obsPeriod_;
        while (nextObsAt_ <= now_)
            nextObsAt_ += obsPeriod_;
    } else {
        nextObsAt_ = kNoCycle;
    }
}

#ifndef NDEBUG
void
GpuSystem::checkActiveSets() const
{
    Cycle e = kNoCycle;
    for (SmId id = 0; id < sms_.size(); ++id) {
        const Cycle se = sms_[id]->nextEventCycle(now_);
        if (se != kNoCycle && !activeSms_.test(id))
            panic("SM%u has an event but is not active", id);
        e = std::min(e, se);
    }
    llc_->checkActiveSlices(now_);
    mem_->checkPickGates(now_);
    e = std::min({e, mem_->nextEventCycle(now_),
                  net_->nextEventCycle(now_),
                  llc_->nextEventCycle(now_)});
    if (std::max(e, now_) != eventNextCycle())
        panic("eventNextCycle() disagrees with a full scan");
}
#endif

void
GpuSystem::registerStats(StatSet &set) const
{
    settleAllSms();
    net_->registerStats(set);
    llc_->registerStats(set);
    mem_->registerStats(set);
    for (const auto &sm : sms_)
        sm->registerStats(set);
}

} // namespace amsc
