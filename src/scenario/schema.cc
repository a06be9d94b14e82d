#include "scenario/schema.hh"

#include <sstream>

#include "common/strutil.hh"
#include "sim/sim_config.hh"

namespace amsc::scenario
{

const std::vector<SchemaKey> &
scenarioKeys()
{
    static const std::vector<SchemaKey> keys = {
        {"name", "Scenario name (defaults to the file stem)."},
        {"description", "One-line description (quote for spaces)."},
        {"workload",
         "Shorthand for a single app block: a Table-2 abbreviation, "
         "or several joined with '+' for multi-program runs "
         "(LUD+AN)."},
    };
    return keys;
}

const std::vector<SchemaKey> &
appKeys()
{
    static const std::vector<SchemaKey> keys = {
        {"workload", "Table-2 benchmark abbreviation (AN, LUD, ...)."},
        {"replay",
         "Replay this trace file instead of generating a workload "
         "(single-app scenarios only)."},
        {"pattern",
         "Synthetic access pattern: broadcast, zipf, tiled or "
         "stream."},
        {"class",
         "Dynamic workload class: llm_inference runs the open-loop "
         "request driver (serving_* config keys, docs/workloads.md)."},
        {"name", "Display name of a synthetic app (default 'syn')."},
        {"shared_mb", "Synthetic shared-region size, MB."},
        {"shared_lines",
         "Synthetic shared-region size in 128 B lines (exact form; "
         "takes precedence over shared_mb)."},
        {"shared_fraction",
         "Probability an access targets the shared region."},
        {"zipf_alpha", "Zipf skew (pattern=zipf)."},
        {"broadcast_mix",
         "Fraction of zipf shared accesses following the broadcast "
         "walk."},
        {"broadcast_window",
         "Broadcast instantaneous window size, lines."},
        {"phase_cycles", "Broadcast cycles per one-line phase advance."},
        {"hot_lines", "Broadcast persistent hot subset, lines."},
        {"hot_fraction",
         "Fraction of broadcast shared accesses going to the hot "
         "set."},
        {"hot_alpha", "Skew within the broadcast hot set."},
        {"tile_lines", "Tile size, lines (pattern=tiled)."},
        {"ctas_per_tile", "CTAs sharing one tile stream."},
        {"private_lines", "Private region per CTA, lines."},
        {"write_fraction", "Fraction of memory instructions that are "
                           "stores."},
        {"atomic_fraction",
         "Fraction of memory instructions that are global atomics."},
        {"compute_per_mem",
         "Compute instructions per memory instruction."},
        {"accesses_per_instr",
         "Coalesced line accesses per memory instruction."},
        {"mem_instrs", "Memory instructions per warp."},
        {"ctas", "CTAs launched by a synthetic app."},
        {"warps", "Warps per CTA of a synthetic app."},
        {"policy",
         "LLC policy of this app: shared, private or adaptive "
         "(overrides config llc_policy per app)."},
    };
    return keys;
}

const std::vector<SchemaKey> &
axisKeys()
{
    static const std::vector<SchemaKey> keys = {
        {"workload",
         "Sweep the workload: each value is a Table-2 abbreviation "
         "or a '+'-joined multi-program combination."},
        {"variant",
         "Sweep named variant.<v> override sets (composite axes: one "
         "value changes several config keys together)."},
    };
    return keys;
}

const std::vector<SchemaKey> &
relationKeys()
{
    static const std::vector<SchemaKey> keys = {
        {"where.<axis>", "Keep the points whose coordinate is listed."},
        {"pair",
         "`<axis>: <a> / <b>`: ratio of each point at `a` to its partner "
         "at `b` (equal on every other axis); `- <b>`: difference."},
        {"metric", "A numeric column, or a quotient of two (`a/b`)."},
        {"agg", "Aggregate: hmean, mean, min or max."},
        {"holds", "`>`, `>=`, `<` or `<=`, then a number or a relation."},
        {"paper", "The paper's value; printed, never a bound."},
        {"known_deviation",
         "Measured vs paper, for a claim the model misses; the relation "
         "must then fail."},
    };
    return keys;
}

namespace
{

bool
isIndex(const std::string &s)
{
    return !s.empty() &&
        s.find_first_not_of("0123456789") == std::string::npos;
}

std::string
suggestIn(const std::string &key, const std::vector<SchemaKey> &set,
          bool with_config_keys)
{
    std::vector<std::string> names;
    for (const SchemaKey &k : set)
        names.emplace_back(k.name);
    if (with_config_keys) {
        for (const ConfigKeyInfo &k : ConfigRegistry::keys())
            names.emplace_back(k.name);
    }
    return nearestOf(key, names);
}

} // namespace

std::string
suggestScenarioKey(const std::string &flat_key)
{
    // Peel scope prefixes, then suggest within the innermost scope.
    std::vector<std::string> parts;
    {
        std::size_t start = 0;
        for (;;) {
            const auto dot = flat_key.find('.', start);
            parts.push_back(flat_key.substr(
                start,
                dot == std::string::npos ? std::string::npos
                                         : dot - start));
            if (dot == std::string::npos)
                break;
            start = dot + 1;
        }
    }
    std::string prefix;
    std::size_t i = 0;
    const auto eat = [&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k)
            prefix += parts[i + k] + ".";
        i += n;
    };
    // Remainder after the eaten scope prefix ("" for a bare scope
    // key like `app = ...`, which is a misuse of a block name).
    const auto leafOf = [&]() {
        return prefix.size() < flat_key.size()
            ? flat_key.substr(prefix.size())
            : std::string();
    };
    if (parts[i] == "grid" &&
        i + 1 < parts.size() && isIndex(parts[i + 1]))
        eat(2);
    else if (parts[i] == "grid")
        eat(1);
    if (i >= parts.size())
        return prefix + "sweep";

    if (parts[i] == "config" && i + 1 < parts.size()) {
        eat(1);
        return prefix + ConfigRegistry::suggest(leafOf());
    }
    if (parts[i] == "sweep" && i + 1 < parts.size()) {
        eat(1);
        return prefix + suggestIn(leafOf(), axisKeys(), true);
    }
    if (parts[i] == "app") {
        eat(i + 1 < parts.size() && isIndex(parts[i + 1]) ? 2 : 1);
        if (i >= parts.size())
            return prefix + "workload";
        return prefix + suggestIn(leafOf(), appKeys(), false);
    }
    if (parts[i] == "expect" && i + 1 < parts.size()) {
        eat(i + 2 < parts.size() ? 2 : 1); // "expect" [, "<relation>"]
        return prefix + suggestIn(leafOf(), relationKeys(), false);
    }
    if (parts[i] == "variant" && i + 2 < parts.size()) {
        eat(2); // "variant", "<name>"
        return prefix + ConfigRegistry::suggest(leafOf());
    }
    if (!prefix.empty()) // inside grid: bare config key or scenario key
        return prefix + suggestIn(leafOf(), scenarioKeys(), true);
    // Top level: scenario scalar, or a config key the author forgot
    // to nest -- suggest both spaces.
    const std::string scn = suggestIn(flat_key, scenarioKeys(), false);
    const std::string cfg = ConfigRegistry::suggest(flat_key);
    if (editDistance(flat_key, cfg) < editDistance(flat_key, scn))
        return "config." + cfg;
    return scn;
}

std::string
renderKeyTable()
{
    std::ostringstream os;
    os << "SimConfig keys (key = value overrides; full reference in "
          "docs/configuration.md):\n\n";
    const SimConfig defaults;
    for (const ConfigKeyInfo &k : ConfigRegistry::keys()) {
        os << "  " << k.name;
        for (std::size_t n = std::string(k.name).size(); n < 20; ++n)
            os << ' ';
        os << ' ' << k.type << " = " << k.get(defaults);
        if (k.values[0] != '\0')
            os << "  (" << k.values << ")";
        os << '\n';
    }
    return os.str();
}

std::string
renderKeyDetail(const std::string &key)
{
    const ConfigKeyInfo *k = ConfigRegistry::find(key);
    if (!k) {
        return "unknown configuration key '" + key + "'; nearest is '" +
            ConfigRegistry::suggest(key) + "'\n";
    }
    const SimConfig defaults;
    std::ostringstream os;
    os << k->name << " (" << k->type;
    if (k->values[0] != '\0')
        os << ": " << k->values;
    os << ")\n  default: " << k->get(defaults) << "\n  " << k->doc
       << "\n";
    return os.str();
}

namespace
{

void
renderSchemaTable(std::ostringstream &os,
                  const std::vector<SchemaKey> &keys)
{
    os << "| key | description |\n|---|---|\n";
    for (const SchemaKey &k : keys)
        os << "| `" << k.name << "` | " << k.doc << " |\n";
    os << "\n";
}

} // namespace

std::string
renderConfigMarkdown()
{
    std::ostringstream os;
    os << "# Configuration reference\n"
          "\n"
          "<!-- GENERATED FILE: do not edit by hand.\n"
          "     Regenerate with:  amsc describe --markdown > "
          "docs/configuration.md\n"
          "     tests/test_docs.cc fails when this file drifts from "
          "the registry. -->\n"
          "\n"
          "Every amsc executable accepts `key=value` overrides of the "
          "simulated\n"
          "system's configuration, and scenario files set the same "
          "keys inside\n"
          "`config { }` blocks. The keys below are the complete "
          "`SimConfig`\n"
          "surface -- each row is generated from the key registry "
          "(`ConfigRegistry`\n"
          "in `src/sim/sim_config.cc`), so this table covers 100% of "
          "the\n"
          "configuration and cannot drift from the code.\n"
          "\n"
          "## SimConfig keys\n"
          "\n"
          "| key | type | default | description |\n"
          "|---|---|---|---|\n";
    const SimConfig defaults;
    for (const ConfigKeyInfo &k : ConfigRegistry::keys()) {
        os << "| `" << k.name << "` | " << k.type;
        if (k.values[0] != '\0')
            os << " (" << k.values << ")";
        os << " | `" << k.get(defaults) << "` | " << k.doc << " |\n";
    }
    os << "\n"
          "## Scenario files (`.scn`)\n"
          "\n"
          "A scenario file describes a whole experiment -- workloads, "
          "configuration\n"
          "overrides and sweep axes -- in a nested key=value dialect "
          "with no\n"
          "external dependencies:\n"
          "\n"
          "```\n"
          "# comment (also //)\n"
          "name = fig11\n"
          "description = \"spaces and # need quotes\"\n"
          "config {\n"
          "  max_cycles = 60000      # any SimConfig key above\n"
          "}\n"
          "app {\n"
          "  pattern = zipf          # or: workload = AN / replay = "
          "x.trc\n"
          "  shared_mb = 16\n"
          "}\n"
          "variant.hynix {\n"
          "  mapping = hynix         # composite sweep value\n"
          "}\n"
          "sweep {\n"
          "  workload = LUD, SP, AN  # first axis varies slowest\n"
          "  llc_policy = shared, private, adaptive\n"
          "}\n"
          "expect {                  # the paper's claims\n"
          "  metric = ipc            # a default for every relation\n"
          "  gain {\n"
          "    pair = llc_policy: adaptive / shared\n"
          "    agg = hmean\n"
          "    holds = > 1\n"
          "    paper = 1.281\n"
          "  }\n"
          "}\n"
          "```\n"
          "\n"
          "Blocks flatten to dotted keys (`config.max_cycles`), so "
          "every setting\n"
          "can also be given inline or overridden on the `amsc` "
          "command line.\n"
          "Repeated `app { }` blocks define multi-program runs; "
          "repeated\n"
          "`grid { }` blocks concatenate independent sub-grids (each "
          "with its own\n"
          "overrides and `sweep { }` axes) into one scenario. The "
          "cartesian\n"
          "product of all axes expands into simulation points "
          "executed on the\n"
          "multi-threaded sweep engine; unknown keys fail with the "
          "nearest valid\n"
          "spelling.\n"
          "\n"
          "### Scenario-level keys\n"
          "\n";
    renderSchemaTable(os, scenarioKeys());
    os << "### `app { }` block keys\n"
          "\n";
    renderSchemaTable(os, appKeys());
    os << "### Sweep axes\n"
          "\n"
          "Any SimConfig key above can be an axis "
          "(`sweep.line_bytes = 64, 128, 256`),\n"
          "plus:\n"
          "\n";
    renderSchemaTable(os, axisKeys());
    os << "### `expect { }` relations\n"
          "\n"
          "Named relations state the paper's claims about the grid. "
          "`amsc run`,\n"
          "`sweep` and `merge` check them once the whole grid has run "
          "as the file\n"
          "states it, print a measured-vs-paper table to stderr and, "
          "after their\n"
          "normal output, exit 1 if one fails. `--smoke`, command-line "
          "overrides\n"
          "and missing or failed points leave a relation `not "
          "evaluated`; shard\n"
          "runs check nothing (`merge` does). A key set directly in "
          "`expect { }`\n"
          "is a default for every relation.\n"
          "\n";
    renderSchemaTable(os, relationKeys());
    return os.str();
}

} // namespace amsc::scenario
