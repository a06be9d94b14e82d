/**
 * @file
 * Result emitters for scenario and bench sweeps.
 *
 * One metric schema, three renderings: CSV (stable column order,
 * %.17g doubles so values round-trip bit-exactly), JSON (one object
 * per point, axis coordinates included), and a human markdown table
 * for `amsc run`. The NoC power/area and system-energy models are
 * evaluated per point, so the energy claims of fig 7/14 are checked
 * from the emitted raw columns alone (metricValue).
 */

#ifndef AMSC_SCENARIO_EMIT_HH
#define AMSC_SCENARIO_EMIT_HH

#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.hh"
#include "sim/gpu_system.hh"
#include "sim/sweep.hh"

namespace amsc::scenario
{

/** Label plus axis coordinates of one emitted row. */
struct EmitPoint
{
    std::string label;
    std::vector<std::pair<std::string, std::string>> coords;
};

/** Emit metadata of expanded scenario points. */
std::vector<EmitPoint>
emitPoints(const std::vector<ExpandedPoint> &points);

/** Ordered union of axis names across @p points. */
std::vector<std::string>
axisColumns(const std::vector<EmitPoint> &points);

/** Metric column names, stable emission order. */
const std::vector<std::string> &metricColumns();

/**
 * Names of the serving columns appended -- after the metric columns,
 * before any "error" column -- when at least one emitted point ran a
 * request-driver workload (RunResult::servingActive). Purely static
 * sweeps keep the historical schema byte-for-byte.
 */
const std::vector<std::string> &servingColumns();

/**
 * Value of the numeric metric or serving column @p column of @p r,
 * exactly as emitted; ConfigError naming the nearest numeric column
 * if there is no such column.
 */
double metricValue(const RunResult &r, const std::string &column);

/**
 * CSV: header plus one row per point. When an entry of @p errors
 * (per-point failure text, sweep_on_error=skip) is non-empty, a
 * trailing "error" column carries it, and a failed point's metric
 * cells are the default-constructed RunResult's; otherwise the output
 * is the same as without @p errors.
 */
std::string emitCsv(const std::vector<EmitPoint> &points,
                    const std::vector<RunResult> &results,
                    const std::vector<std::string> &errors = {});

/**
 * JSON: {"scenario": name, "points": [{label, axes, metrics}]}, with
 * @p errors as for the CSV.
 */
std::string emitJson(const std::string &scenario,
                     const std::vector<EmitPoint> &points,
                     const std::vector<RunResult> &results,
                     const std::vector<std::string> &errors = {});

/** Markdown summary table (amsc run's default output). */
std::string renderTable(const std::vector<EmitPoint> &points,
                        const std::vector<RunResult> &results);

/** Write @p content to @p path ("-" or "" = stdout). */
void writeOut(const std::string &content, const std::string &path);

} // namespace amsc::scenario

#endif // AMSC_SCENARIO_EMIT_HH
