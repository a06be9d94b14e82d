#include "scenario/emit.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/atomic_io.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "power/gpu_energy.hh"
#include "power/noc_power.hh"

namespace amsc::scenario
{

namespace
{

/** Round-trip-exact double rendering. */
std::string
d17(double v)
{
    return strfmt("%.17g", v);
}

/** One rendered metric cell: name, value text, whether JSON quotes it. */
struct Cell
{
    std::string name;
    std::string value;
    bool quoted = false;
};

/**
 * The metric schema. Power/energy are derived from the activity
 * snapshots with the NoC power and GPU energy models (1.4 GHz core
 * clock), so the emitted row is self-contained.
 */
std::vector<Cell>
metricCells(const RunResult &r)
{
    const NocPowerResult noc =
        NocPowerModel{}.evaluate(r.nocActivity, r.cycles);
    GpuActivity act = r.gpuActivity;
    act.nocEnergyUj = noc.totalEnergyUj();
    const double sys_uj = GpuEnergyModel{}.evaluate(act).totalUj();

    std::string app_ipc;
    for (std::size_t i = 0; i < r.appIpc.size(); ++i)
        app_ipc += (i ? "+" : "") + d17(r.appIpc[i]);
    std::string app_instr;
    for (std::size_t i = 0; i < r.appInstructions.size(); ++i)
        app_instr +=
            (i ? "+" : "") + std::to_string(r.appInstructions[i]);

    return {
        {"cycles", std::to_string(r.cycles), false},
        {"instructions", std::to_string(r.instructions), false},
        {"ipc", d17(r.ipc), false},
        {"finished", r.finishedWork ? "true" : "false", false},
        {"llc_read_miss_rate", d17(r.llcReadMissRate), false},
        {"llc_response_rate", d17(r.llcResponseRate), false},
        {"llc_accesses", std::to_string(r.llcAccesses), false},
        {"llc_bypasses", std::to_string(r.llcBypasses), false},
        {"dram_accesses", std::to_string(r.dramAccesses), false},
        {"dram_row_hit_rate", d17(r.dramRowHitRate), false},
        {"dram_refreshes", std::to_string(r.dramRefreshes), false},
        {"dram_queue_rejects", std::to_string(r.dramQueueRejects),
         false},
        {"dram_write_drains", std::to_string(r.dramWriteDrains),
         false},
        {"avg_request_latency", d17(r.avgRequestLatency), false},
        {"avg_reply_latency", d17(r.avgReplyLatency), false},
        {"final_llc_mode", llcModeName(r.finalMode), true},
        {"llc_to_private",
         std::to_string(r.llcCtrl.transitionsToPrivate), false},
        {"llc_to_shared",
         std::to_string(r.llcCtrl.transitionsToShared), false},
        {"reconfig_stall_cycles",
         std::to_string(r.llcCtrl.reconfigStallCycles), false},
        {"profile_windows", std::to_string(r.llcCtrl.profileWindows),
         false},
        {"llc_decisions_private",
         std::to_string(r.llcCtrl.decisionsPrivate), false},
        {"llc_decisions_shared",
         std::to_string(r.llcCtrl.decisionsShared), false},
        {"rule1_fires", std::to_string(r.llcCtrl.rule1Fires), false},
        {"rule2_fires", std::to_string(r.llcCtrl.rule2Fires), false},
        {"atomic_vetoes", std::to_string(r.llcCtrl.atomicVetoes),
         false},
        {"llc_cycles_private",
         std::to_string(r.llcCtrl.cyclesPrivate), false},
        {"llc_cycles_shared", std::to_string(r.llcCtrl.cyclesShared),
         false},
        {"sharing_1c", d17(r.sharingBuckets[0]), false},
        {"sharing_2c", d17(r.sharingBuckets[1]), false},
        {"sharing_3_4c", d17(r.sharingBuckets[2]), false},
        {"sharing_5_8c", d17(r.sharingBuckets[3]), false},
        {"app_ipc", app_ipc, true},
        {"app_instructions", app_instr, true},
        {"noc_energy_uj", d17(noc.totalEnergyUj()), false},
        {"noc_buffer_uj", d17(noc.energyUj.buffer), false},
        {"noc_xbar_uj", d17(noc.energyUj.crossbar), false},
        {"noc_link_uj", d17(noc.energyUj.links), false},
        {"noc_other_uj", d17(noc.energyUj.other), false},
        {"noc_area_mm2", d17(noc.totalAreaMm2()), false},
        {"sys_energy_uj", d17(sys_uj), false},
    };
}

/**
 * Serving columns, appended only when some point actually ran a
 * request-driver program (RunResult::servingActive), so the emitted
 * schema -- and every pre-serving golden file -- is unchanged for
 * purely static sweeps. Mirrors the conditional "error" column.
 */
std::vector<Cell>
servingCells(const RunResult &r)
{
    return {
        {"requests_completed", std::to_string(r.requestsCompleted),
         false},
        {"req_lat_p50", d17(r.reqLatencyP50), false},
        {"req_lat_p99", d17(r.reqLatencyP99), false},
        {"batch_occupancy", d17(r.batchOccupancy), false},
        {"queue_depth_mean", d17(r.queueDepthMean), false},
    };
}

/** Metric then serving cells of @p r. */
std::vector<Cell>
allCells(const RunResult &r)
{
    auto cells = metricCells(r);
    const auto serving = servingCells(r);
    cells.insert(cells.end(), serving.begin(), serving.end());
    return cells;
}

bool
anyError(const std::vector<std::string> &errors)
{
    return std::any_of(errors.begin(), errors.end(),
                       [](const std::string &e) { return !e.empty(); });
}

bool
anyServing(const std::vector<RunResult> &results)
{
    for (const RunResult &r : results) {
        if (r.servingActive)
            return true;
    }
    return false;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** RFC-4180 quoting for label/axis cells that need it. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

const std::vector<std::string> &
metricColumns()
{
    static const std::vector<std::string> cols = [] {
        std::vector<std::string> out;
        for (const Cell &c : metricCells(RunResult{}))
            out.push_back(c.name);
        return out;
    }();
    return cols;
}

const std::vector<std::string> &
servingColumns()
{
    static const std::vector<std::string> cols = [] {
        std::vector<std::string> out;
        for (const Cell &c : servingCells(RunResult{}))
            out.push_back(c.name);
        return out;
    }();
    return cols;
}

double
metricValue(const RunResult &r, const std::string &column)
{
    std::vector<std::string> numeric;
    for (const Cell &c : allCells(r)) {
        char *end = nullptr;
        const double v = std::strtod(c.value.c_str(), &end);
        if (c.quoted || *end != '\0')
            continue;
        if (c.name == column)
            return v;
        numeric.push_back(c.name);
    }
    throw ConfigError("unknown column '" + column + "'; nearest is '" +
                      nearestOf(column, numeric) + "'");
}

std::vector<EmitPoint>
emitPoints(const std::vector<ExpandedPoint> &points)
{
    std::vector<EmitPoint> out;
    out.reserve(points.size());
    for (const ExpandedPoint &p : points)
        out.push_back({p.point.label, p.coords});
    return out;
}

std::vector<std::string>
axisColumns(const std::vector<EmitPoint> &points)
{
    std::vector<std::string> out;
    for (const EmitPoint &p : points) {
        for (const auto &[key, value] : p.coords) {
            if (std::find(out.begin(), out.end(), key) == out.end())
                out.push_back(key);
        }
    }
    return out;
}

std::string
emitCsv(const std::vector<EmitPoint> &points,
        const std::vector<RunResult> &results,
        const std::vector<std::string> &errors)
{
    const bool with_errors = anyError(errors);
    const bool with_serving = anyServing(results);
    const std::vector<std::string> axes = axisColumns(points);
    std::ostringstream os;
    os << "label";
    for (const std::string &a : axes)
        os << "," << a;
    for (const std::string &m : metricColumns())
        os << "," << m;
    if (with_serving) {
        for (const std::string &m : servingColumns())
            os << "," << m;
    }
    if (with_errors)
        os << ",error";
    os << "\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        os << csvField(points[i].label);
        for (const std::string &a : axes) {
            os << ",";
            for (const auto &[key, value] : points[i].coords) {
                if (key == a) {
                    os << csvField(value);
                    break;
                }
            }
        }
        for (const Cell &c : metricCells(results[i]))
            os << "," << c.value;
        if (with_serving) {
            for (const Cell &c : servingCells(results[i]))
                os << "," << c.value;
        }
        if (with_errors)
            os << "," << csvField(errors[i]);
        os << "\n";
    }
    return os.str();
}

std::string
emitJson(const std::string &scenario,
         const std::vector<EmitPoint> &points,
         const std::vector<RunResult> &results,
         const std::vector<std::string> &errors)
{
    const bool with_errors = anyError(errors);
    const bool with_serving = anyServing(results);
    std::ostringstream os;
    os << "{\n  \"scenario\": \"" << jsonEscape(scenario)
       << "\",\n  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        os << "    {\"label\": \"" << jsonEscape(points[i].label)
           << "\", \"axes\": {";
        for (std::size_t a = 0; a < points[i].coords.size(); ++a) {
            os << (a ? ", " : "") << "\""
               << jsonEscape(points[i].coords[a].first) << "\": \""
               << jsonEscape(points[i].coords[a].second) << "\"";
        }
        os << "}, \"metrics\": {";
        const auto cells = with_serving ? allCells(results[i])
                                        : metricCells(results[i]);
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << (c ? ", " : "") << "\"" << cells[c].name << "\": ";
            if (cells[c].quoted)
                os << "\"" << jsonEscape(cells[c].value) << "\"";
            else
                os << cells[c].value;
        }
        os << "}";
        if (with_errors)
            os << ", \"error\": \"" << jsonEscape(errors[i])
               << "\"";
        os << "}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

std::string
renderTable(const std::vector<EmitPoint> &points,
            const std::vector<RunResult> &results)
{
    std::ostringstream os;
    os << "| point | IPC | cycles | instructions | LLC miss | final "
          "mode |\n|---|---|---|---|---|---|\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RunResult &r = results[i];
        os << "| " << points[i].label << " | "
           << strfmt("%.2f", r.ipc) << " | " << r.cycles << " | "
           << r.instructions << " | "
           << strfmt("%.3f", r.llcReadMissRate) << " | "
           << llcModeName(r.finalMode) << " |\n";
    }
    return os.str();
}

void
writeOut(const std::string &content, const std::string &path)
{
    if (path.empty() || path == "-") {
        std::fputs(content.c_str(), stdout);
        return;
    }
    writeFileAtomic(path, content);
}

} // namespace amsc::scenario
