#include "scenario/expect.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/error.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "scenario/schema.hh"

namespace amsc::scenario
{

namespace
{

using Verdict = RelationOutcome::Verdict;

bool
isNumber(const std::string &s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && *end == '\0';
}

/** ConfigError unless @p name is in @p valid, naming the nearest. */
void
checkIn(const std::string &name, const std::vector<std::string> &valid,
        const char *what, const std::string &ctx)
{
    if (std::find(valid.begin(), valid.end(), name) == valid.end())
        throw ConfigError(strfmt("%s: unknown %s '%s'; nearest is '%s'",
                                 ctx.c_str(), what, name.c_str(),
                                 nearestOf(name, valid).c_str()));
}

/** Apply relation key @p leaf ("pair", "where.workload", ...) to @p r. */
void
setKey(Relation &r, const std::string &leaf, const std::string &value,
       const std::vector<std::string> &axes, const std::string &ctx,
       const std::string &flat_key)
{
    const auto bad = [&](const char *want) {
        return ConfigError(ctx + ": " + leaf + " = '" + value +
                           "' is not " + want);
    };
    double num = 0.0;
    if (startsWith(leaf, "where.")) {
        r.where.push_back({leaf.substr(6), splitList(value)});
        checkIn(r.where.back().key, axes, "axis", ctx);
        if (r.where.back().values.empty())
            throw bad("a value list");
    } else if (leaf == "pair") {
        std::string rest;
        std::istringstream(value) >> r.pairAxis >> r.of >> r.op >> r.to >> rest;
        if (r.pairAxis.empty() || r.pairAxis.back() != ':' ||
            (r.op != "/" && r.op != "-") || r.to.empty() ||
            !rest.empty() || r.of == r.to)
            throw bad("'<axis>: <a> / <b>' or '<axis>: <a> - <b>'");
        r.pairAxis.pop_back();
        checkIn(r.pairAxis, axes, "axis", ctx);
    } else if (leaf == "metric") {
        r.metric = splitList(value, '/');
        if (r.metric.empty() || r.metric.size() > 2)
            throw bad("'<column>' or '<column>/<column>'");
        try {
            for (const std::string &col : r.metric)
                metricValue(RunResult{}, col);
        } catch (const ConfigError &e) {
            throw ConfigError(ctx + ": " + e.what());
        }
    } else if (leaf == "agg") {
        checkIn(value, {"hmean", "mean", "min", "max"}, "aggregate", ctx);
        r.agg = value;
    } else if (leaf == "holds") {
        std::string rest;
        std::istringstream(value) >> r.cmp >> r.rhs >> rest;
        if (r.rhs.empty() || !rest.empty())
            throw bad("'<op> <number or relation>'");
        checkIn(r.cmp, {">", ">=", "<", "<="}, "comparison", ctx);
    } else if (leaf == "paper") {
        if (!isNumber(value, num))
            throw bad("a number");
        r.paper = value;
    } else if (leaf == "known_deviation") {
        r.knownDeviation = value;
    } else {
        throw ConfigError(strfmt("%s: unknown key '%s'; nearest is '%s'",
                                 ctx.c_str(), flat_key.c_str(),
                                 suggestScenarioKey(flat_key).c_str()));
    }
}

/** Aggregate of @p r over the grid into @p out; else why not. */
std::string
measure(const Relation &r, const std::vector<EmitPoint> &points,
        const std::vector<RunResult> &results,
        const std::vector<std::string> &errors, double &out)
{
    const auto coord = [&](std::size_t i, const std::string &axis) {
        for (const auto &[key, value] : points[i].coords) {
            if (key == axis)
                return value;
        }
        return std::string(); // axis values are never empty
    };
    const auto value = [&](std::size_t i) {
        const double v = metricValue(results[i], r.metric[0]);
        return r.metric.size() == 1
            ? v
            : v / metricValue(results[i], r.metric[1]);
    };

    std::vector<std::size_t> sel;
    for (std::size_t i = 0; i < points.size(); ++i) {
        bool in = r.pairAxis.empty() || coord(i, r.pairAxis) == r.of ||
            coord(i, r.pairAxis) == r.to;
        for (const SweepAxis &w : r.where)
            in = in && std::count(w.values.begin(), w.values.end(),
                                  coord(i, w.key)) != 0;
        if (in)
            sel.push_back(i);
    }
    for (const SweepAxis &w : r.where) {
        for (const std::string &v : w.values) {
            if (std::none_of(sel.begin(), sel.end(), [&](std::size_t i) {
                    return coord(i, w.key) == v;
                }))
                return "missing point " + w.key + "=" + v;
        }
    }
    if (sel.empty())
        return "no point selected";

    std::vector<double> values;
    for (const std::size_t i : sel) {
        if (!errors[i].empty())
            return "failed point " + points[i].label;
        if (r.pairAxis.empty()) {
            values.push_back(value(i));
            continue;
        }
        // The partner matches on every axis but the pair axis.
        auto want = points[i].coords;
        const bool is_of = coord(i, r.pairAxis) == r.of;
        for (auto &[key, v] : want) {
            if (key == r.pairAxis)
                v = is_of ? r.to : r.of;
        }
        const auto partner =
            std::find_if(sel.begin(), sel.end(), [&](std::size_t j) {
                return points[j].coords == want;
            });
        if (partner == sel.end())
            return "missing point " + r.pairAxis + "=" +
                (is_of ? r.to : r.of) + " beside " + points[i].label;
        if (is_of)
            values.push_back(r.op == "/" ? value(i) / value(*partner)
                                         : value(i) - value(*partner));
    }

    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    out = r.agg == "min"    ? *lo
        : r.agg == "max"    ? *hi
        : r.agg == "mean"   ? mean(values)
        : *lo > 0.0         ? harmonicMean(values) // positive values only
                            : std::numeric_limits<double>::quiet_NaN();
    return "";
}

} // namespace

std::vector<Relation>
parseRelations(const KvArgs &kv, const std::string &origin,
               const std::vector<std::string> &axes)
{
    std::vector<std::string> heads; // "where.<axis>" -> "where"
    for (const SchemaKey &k : relationKeys())
        heads.push_back(splitList(k.name, '.')[0]);
    Relation defaults;
    std::vector<Relation> out;
    for (const std::string &key : kv.keysWithPrefix("expect.")) {
        std::string leaf = key.substr(7);
        const std::string head = leaf.substr(0, leaf.find('.'));
        Relation *r = &defaults;
        if (std::count(heads.begin(), heads.end(), head) == 0) {
            auto it = std::find_if(out.begin(), out.end(),
                                   [&](const Relation &x) {
                                       return x.name == head;
                                   });
            r = it != out.end() ? &*it : &out.emplace_back();
            r->name = head;
            leaf = leaf.substr(std::min(leaf.size(), head.size() + 1));
        }
        setKey(*r, leaf, kv.getString(key), axes,
               origin + ": expect" + (r == &defaults ? "" : "." + head),
               key);
    }

    std::vector<std::string> names;
    for (const Relation &r : out)
        names.push_back(r.name);
    for (Relation &r : out) {
        // A relation inherits every key it does not set.
        if (r.where.empty())
            r.where = defaults.where;
        if (r.metric.empty())
            r.metric = defaults.metric;
        for (std::string Relation::*f :
             {&Relation::pairAxis, &Relation::of, &Relation::to,
              &Relation::op, &Relation::agg, &Relation::cmp,
              &Relation::rhs, &Relation::paper,
              &Relation::knownDeviation}) {
            if ((r.*f).empty())
                r.*f = defaults.*f;
        }
        const std::string ctx = origin + ": expect." + r.name;
        double num = 0.0;
        if (r.metric.empty() || r.agg.empty() || r.cmp.empty() ||
            r.paper.empty())
            throw ConfigError(ctx + " needs metric, agg, holds and paper");
        if (r.agg == "hmean" && r.op == "-")
            throw ConfigError(ctx + ": hmean of differences");
        if (!isNumber(r.rhs, num))
            checkIn(r.rhs, names, "relation", ctx);
    }
    return out;
}

std::vector<RelationOutcome>
evaluateRelations(const std::vector<Relation> &relations,
                  const std::vector<EmitPoint> &points,
                  const std::vector<RunResult> &results,
                  const std::vector<std::string> &errors,
                  const std::string &skip)
{
    std::vector<RelationOutcome> out(relations.size());
    std::vector<std::string> why(relations.size(), skip);
    for (std::size_t i = 0; i < relations.size(); ++i) {
        if (skip.empty())
            why[i] = measure(relations[i], points, results, errors,
                             out[i].measured);
    }
    for (std::size_t i = 0; i < relations.size(); ++i) {
        const Relation &r = relations[i];
        RelationOutcome &o = out[i];
        o.reason = why[i];
        if (!why[i].empty())
            continue;
        if (!isNumber(r.rhs, o.rhs)) {
            const auto j = static_cast<std::size_t>(
                std::find_if(relations.begin(), relations.end(),
                             [&](const Relation &x) {
                                 return x.name == r.rhs;
                             }) -
                relations.begin());
            o.rhs = out[j].measured;
            o.reason = why[j].empty() ? "" : r.rhs + ": " + why[j];
            if (!o.reason.empty())
                continue;
        }
        const double m = o.measured;
        const bool holds = r.cmp == ">" ? m > o.rhs
            : r.cmp == ">="             ? m >= o.rhs
            : r.cmp == "<"              ? m < o.rhs
                                        : m <= o.rhs;
        o.verdict = r.knownDeviation.empty()
            ? (holds ? Verdict::Pass : Verdict::Violated)
            : (holds ? Verdict::StaleTag : Verdict::Deviation);
    }
    return out;
}

std::string
renderOutcomes(const std::vector<Relation> &relations,
               const std::vector<RelationOutcome> &outcomes)
{
    static const char *const kVerdicts[] = {
        "PASS", "VIOLATED", "DEVIATION (known: ",
        "STALE TAG: holds; remove known_deviation", "not evaluated ("};
    std::ostringstream os;
    os << "| relation | measured | holds | paper | verdict |\n"
          "|---|---|---|---|---|\n";
    for (std::size_t i = 0; i < relations.size(); ++i) {
        const Relation &r = relations[i];
        const RelationOutcome &o = outcomes[i];
        double num = 0.0;
        const bool ran = o.verdict != Verdict::NotEvaluated;
        os << "| " << r.name << " | "
           << (ran ? strfmt("%.4g", o.measured) : "-") << " | " << r.cmp
           << " " << r.rhs
           << (ran && !isNumber(r.rhs, num) ? strfmt(" (%.4g)", o.rhs)
                                            : "")
           << " | " << r.paper << " | "
           << kVerdicts[static_cast<int>(o.verdict)]
           << (o.verdict == Verdict::Deviation ? r.knownDeviation + ")"
               : ran                           ? ""
                                               : o.reason + ")")
           << " |\n";
    }
    return os.str();
}

std::size_t
countFailures(const std::vector<RelationOutcome> &outcomes)
{
    return static_cast<std::size_t>(std::count_if(
        outcomes.begin(), outcomes.end(), [](const RelationOutcome &o) {
            return o.verdict == Verdict::Violated ||
                o.verdict == Verdict::StaleTag;
        }));
}

} // namespace amsc::scenario
