/**
 * @file
 * Paper claims as checked data: the `expect { }` block of a scenario.
 *
 * Each named relation selects grid points by coordinate (`where`),
 * optionally pairs them along one axis (`pair = llc_policy: adaptive
 * / shared` takes ratios, `a - b` differences), reads one emitted
 * column or a column quotient, aggregates, and compares the result
 * with a constant or with another relation (`holds = > 1`,
 * `holds = < gain_default`). `paper` is printed, never a bound. A
 * relation the model misses carries `known_deviation` and must stay
 * violated, so a stale tag fails too.
 */

#ifndef AMSC_SCENARIO_EXPECT_HH
#define AMSC_SCENARIO_EXPECT_HH

#include <string>
#include <vector>

#include "common/kvargs.hh"
#include "scenario/emit.hh"
#include "scenario/scenario.hh"

namespace amsc::scenario
{

/**
 * Parse the `expect.*` keys of @p kv (@p axes: the grid's sweep
 * axes). `expect.<key>` is a default for every relation.
 */
std::vector<Relation>
parseRelations(const KvArgs &kv, const std::string &origin,
               const std::vector<std::string> &axes);

/** What one relation came to on one grid. */
struct RelationOutcome
{
    /** Violated and StaleTag (tagged, but holds) fail a run. */
    enum class Verdict { Pass, Violated, Deviation, StaleTag, NotEvaluated };
    Verdict verdict = Verdict::NotEvaluated;
    double measured = 0.0;
    double rhs = 0.0;   ///< the bound, or the other relation's value
    std::string reason; ///< why it was not evaluated
};

/**
 * Evaluate @p relations on a finished grid (@p errors: per-point
 * failure text). A non-empty @p skip leaves every relation not
 * evaluated for that reason.
 */
std::vector<RelationOutcome>
evaluateRelations(const std::vector<Relation> &relations,
                  const std::vector<EmitPoint> &points,
                  const std::vector<RunResult> &results,
                  const std::vector<std::string> &errors,
                  const std::string &skip = "");

/** Measured-vs-paper table, one row per relation. */
std::string renderOutcomes(const std::vector<Relation> &relations,
                           const std::vector<RelationOutcome> &outcomes);

/** Outcomes that fail a run: Violated or StaleTag. */
std::size_t countFailures(const std::vector<RelationOutcome> &outcomes);

} // namespace amsc::scenario

#endif // AMSC_SCENARIO_EXPECT_HH
