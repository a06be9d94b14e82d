/**
 * @file
 * Whole-system configuration (paper Table 1 defaults).
 *
 * SimConfig aggregates every structural knob of the simulated GPU and
 * provides key=value overrides so benches and examples can sweep the
 * paper's sensitivity dimensions (address mapping, channel width, SM
 * count, L1 size, CTA scheduling, LLC policy, NoC topology).
 */

#ifndef AMSC_SIM_SIM_CONFIG_HH
#define AMSC_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "cache/cache_types.hh"
#include "common/kvargs.hh"
#include "common/types.hh"
#include "gpu/cta_scheduler.hh"
#include "gpu/sm.hh"
#include "llc/llc_system.hh"
#include "mem/address_mapping.hh"
#include "mem/dram_timing.hh"
#include "mem/mem_backend.hh"
#include "mem/mem_scheduler.hh"
#include "noc/noc_params.hh"

namespace amsc
{

/** Sweep-point failure policy (SweepRunner, `amsc sweep`). */
enum class SweepOnError
{
    Abort, ///< first failed point aborts the whole sweep (seed)
    Skip,  ///< record the error, keep running the remaining points
};

/** Parse "abort" | "skip". */
SweepOnError parseSweepOnError(const std::string &name);

/** Key spelling of @p v ("abort" | "skip"). */
std::string sweepOnErrorName(SweepOnError v);

/** Cycle-core driver (GpuSystem::run). */
enum class SimMode
{
    Tick,  ///< advance the clock one cycle at a time (seed default)
    Event, ///< jump the clock to min(component nextEventCycle)
};

/** Parse "tick" | "event". */
SimMode parseSimMode(const std::string &name);

/** Key spelling of @p v ("tick" | "event"). */
std::string simModeName(SimMode v);

/** Complete system configuration. */
struct SimConfig
{
    // ---- GPU cores (Table 1) -------------------------------------
    std::uint32_t numSms = 80;
    std::uint32_t numClusters = 8;
    std::uint32_t numSchedulers = 2;
    std::uint32_t maxResidentCtas = 4;
    std::uint32_t maxResidentWarps = 64;

    // ---- L1 data cache (Table 1: 48 KB, 6-way, LRU, 128 B) -------
    std::uint64_t l1SizeBytes = 48 * 1024;
    std::uint32_t l1Assoc = 6;
    std::uint32_t lineBytes = 128;
    std::uint32_t l1Latency = 28;
    std::uint32_t l1Mshrs = 32;
    std::uint32_t l1MshrTargets = 8;

    // ---- LLC (Table 1: 8 MCs x 8 slices x 96 KB, 16-way) ---------
    std::uint32_t numMcs = 8;
    std::uint32_t slicesPerMc = 8;
    std::uint64_t llcSliceBytes = 96 * 1024;
    std::uint32_t llcAssoc = 16;
    std::uint32_t llcHitLatency = 30;
    std::uint32_t llcMissLatency = 10;
    std::uint32_t llcMshrs = 64;
    std::uint32_t llcMshrTargets = 16;
    /** LLC replacement policy (main tags *and* the ATD). */
    ReplPolicy llcRepl = ReplPolicy::Lru;
    /** LLC fill-bypass policy. */
    BypassPolicy llcBypass = BypassPolicy::None;
    /** DRRIP set-dueling leader sets per constituency, per slice. */
    std::uint32_t llcDuelSets = 4;
    /**
     * Per-application bypass overrides, '+'-joined (on|off|inherit);
     * empty = every app follows llc_bypass. E.g. "on+off" enables the
     * bypass for app 0 only in a two-program mix.
     */
    std::string llcBypassApps;

    // ---- adaptive controller (paper section 4.3) ------------------
    /** Policy of app 0 (single-program runs). */
    LlcPolicy llcPolicy = LlcPolicy::ForceShared;
    /** Policies of additional apps (multi-program runs). */
    std::vector<LlcPolicy> extraAppPolicies{};
    Cycle profileLen = 50000;
    Cycle epochLen = 1000000;
    double missTolerance = 0.02;
    /** Rule #2 hysteresis factor (1.0 = the paper's bare rule). */
    double bwMargin = 1.15;
    Cycle gateDelay = 30;
    bool trackSharing = false;

    // ---- NoC (Table 1: crossbar, 32 B channels, 1 VC, 8 flits) ---
    NocTopology topology = NocTopology::Hierarchical;
    std::uint32_t channelWidthBytes = 32;
    std::uint32_t concentration = 2;
    std::uint32_t vcDepthFlits = 8;
    std::uint32_t routerPipelineLatency = 3;
    Cycle shortLinkLatency = 1;
    Cycle longLinkLatency = 4;
    std::size_t injectQueueCap = 16;
    std::size_t ejectQueueCap = 16;
    Cycle idealNocLatency = 10;

    // ---- DRAM (Table 1: FR-FCFS, 16 banks/MC, GDDR5, 900 GB/s) ---
    /**
     * Technology preset last applied (gddr5|hbm2|scm); the
     * `mem_backend` key rewrites the timing/structure block below,
     * and later dram_* keys override individual fields.
     */
    MemBackend memBackend = MemBackend::Gddr5;
    /** Memory-controller scheduling policy. */
    MemSched memSched = MemSched::FrFcfs;
    DramTimings dramTimings{};
    std::uint32_t banksPerMc = 16;
    /** Bank groups per MC (1 disables tCCD_L/tCCD_S). */
    std::uint32_t dramBankGroups = 1;
    std::uint32_t dramBusBytesPerCycle = 80;
    std::uint32_t dramRowBytes = 2048;
    std::uint32_t dramQueueCap = 64;
    MappingScheme mappingScheme = MappingScheme::Pae;

    // ---- scheduling -----------------------------------------------
    CtaPolicy ctaPolicy = CtaPolicy::TwoLevelRR;

    // ---- run control ----------------------------------------------
    Cycle maxCycles = 200000;
    std::uint64_t maxInstructions = 0; ///< 0 = unlimited
    std::uint64_t seed = 42;
    /**
     * Skip fully-quiescent stall cycles (LLC reconfiguration
     * countdowns) instead of empty-ticking them. Bit-exact with the
     * unskipped run (see docs/performance.md); the switch exists so
     * tests can prove that.
     */
    bool fastForward = true;
    /**
     * Cycle-core driver: the per-cycle tick loop, or event-driven
     * jumps of the global clock to the earliest advertised
     * component event. Bit-identical results and emitted streams
     * either way (tests/test_event_core.cc); event mode is faster
     * the more idle cycles a run has (docs/performance.md).
     */
    SimMode simMode = SimMode::Tick;
    /**
     * Write a crash-recovery checkpoint every N cycles during run()
     * (0 = off; requires checkpoint_path). The grid is aligned to
     * absolute cycle numbers; a fast-forward jump over a grid point
     * checkpoints at the first live tick past it. Restoring the file
     * and running to completion is bit-identical to the unbroken run
     * (docs/robustness.md).
     */
    Cycle checkpointEvery = 0;
    /**
     * Checkpoint output file, atomically overwritten at every
     * checkpoint_every boundary: a crash mid-write leaves the
     * previous checkpoint intact.
     */
    std::string checkpointPath;
    /** Failure policy for sweep points (SweepRunner). */
    SweepOnError sweepOnError = SweepOnError::Abort;

    // ---- trace capture / replay (src/trace) ------------------------
    /** Record app 0's warp streams to this trace file (runPoint). */
    std::string traceRecordPath;
    /** Replay app 0's workload from this trace file instead. */
    std::string traceReplayPath;

    // ---- observability (src/obs) -----------------------------------
    /**
     * Capture the run's timeline (epoch phases, Rule #1/#2/#3
     * decisions, per-slice/per-MC/NoC counters). With timelineOut
     * empty the stream feeds a null sink: the observers run and
     * nothing is written.
     */
    bool timeline = false;
    /** Perfetto/chrome-tracing JSON output path (implies timeline). */
    std::string timelineOut;
    /** Windowed stats-delta JSONL output path (empty = off). */
    std::string statsStreamOut;
    /** Counter-sampling and stats-window period, cycles. */
    Cycle statsStreamPeriod = 10000;

    // ---- open-loop serving (workloads/llm_inference) ----------------
    // Consumed by request-driver programs (`app { class = ... }` in
    // scenario files); inert for static workloads. All of them enter
    // the checkpoint identity hash like any structural key.
    /** Mean request arrivals per 1000 cycles (Poisson process). */
    double servingRate = 2.0;
    /** Tenant (model instance) population, Zipf-distributed. */
    std::uint32_t servingTenants = 4;
    /** Zipf skew of the tenant popularity distribution. */
    double servingZipfAlpha = 0.8;
    /** Maximum requests batched into one phase chain. */
    std::uint32_t servingBatch = 4;
    /** Total requests the driver admits (0 = open-ended). */
    std::uint32_t servingRequests = 32;
    /** Prompt (context) length in tokens, drives prefill volume. */
    std::uint32_t servingCtx = 256;
    /** Generated tokens per request, drives decode volume. */
    std::uint32_t servingDecode = 16;
    /** Model hidden dimension (weight/KV footprint scaling). */
    std::uint32_t llmDModel = 1024;
    /** Transformer layer count (weight/KV footprint scaling). */
    std::uint32_t llmLayers = 8;

    /** SMs per cluster. */
    std::uint32_t
    smsPerCluster() const
    {
        return (numSms + numClusters - 1) / numClusters;
    }

    /** Total LLC slices. */
    std::uint32_t numSlices() const { return numMcs * slicesPerMc; }

    /** Number of co-running applications. */
    std::uint32_t
    numApps() const
    {
        return 1 +
            static_cast<std::uint32_t>(extraAppPolicies.size());
    }

    // ---- derived parameter blocks ---------------------------------
    /** Per-app bypass eligibility from llc_bypass_apps/llc_bypass. */
    std::vector<std::uint8_t> buildBypassAppMask() const;
    MappingParams buildMappingParams() const;
    DramParams buildDramParams() const;
    NocParams buildNocParams() const;
    SmParams buildSmParams(SmId id) const;
    LlcParams buildLlcParams() const;

    /**
     * Apply key=value overrides. The accepted keys are the
     * ConfigRegistry entries (docs/configuration.md is generated from
     * them); keys the registry does not know stay unconsumed so
     * callers can layer their own keys on top.
     */
    void applyKv(const KvArgs &args);

    /** Render the configuration, Table-1 style. */
    void print(std::ostream &os) const;

    /** Validate cross-parameter invariants; fatal() on violation. */
    void validate() const;
};

/**
 * Apply the @p backend technology preset to @p cfg: rewrites the
 * DRAM timing block, banks, bank groups, bus width and row size
 * (mem/mem_backend.hh). Individual dram_* overrides applied
 * afterwards win, both on the CLI (registry order) and in scenario
 * files (declaration order).
 */
void applyMemBackend(SimConfig &cfg, MemBackend backend);

/**
 * One introspectable SimConfig key: name, documentation, and typed
 * accessors. get() renders the current value in the same spelling
 * set() parses, so get(defaults) doubles as the documented default.
 */
struct ConfigKeyInfo
{
    const char *name; ///< key=value spelling (e.g. "num_sms")
    const char *type; ///< uint | double | bool | enum | list | string
    /** Allowed values for enums ("shared|private|adaptive"), else "". */
    const char *values;
    const char *doc; ///< one-line description (docs/configuration.md)
    std::string (*get)(const SimConfig &);
    /** Parse @p value into the config; fatal() on malformed input. */
    void (*set)(SimConfig &, const std::string &value);
};

/**
 * The complete SimConfig key set. Every SimConfig field is reachable
 * through exactly one registry key; tests/test_docs.cc holds the
 * completeness canary and fails when a field is added without a
 * registry entry, and docs/configuration.md is generated from this
 * table (`amsc describe --markdown`).
 */
class ConfigRegistry
{
  public:
    /** All keys, declaration (= documentation) order. */
    static const std::vector<ConfigKeyInfo> &keys();

    /** Look up a key; nullptr if unknown. */
    static const ConfigKeyInfo *find(const std::string &name);

    /** Nearest known key to @p name (for error messages). */
    static std::string suggest(const std::string &name);

    /**
     * Apply one key=value override; fatal() naming the nearest valid
     * key when @p name is unknown. Does not run validate() -- callers
     * applying several keys validate once at the end.
     */
    static void apply(SimConfig &cfg, const std::string &name,
                      const std::string &value);
};

} // namespace amsc

#endif // AMSC_SIM_SIM_CONFIG_HH
