/**
 * @file
 * Minimal JSON parser for the observability validators.
 *
 * Just enough of RFC 8259 to round-trip what the repo's own writers
 * emit (perfetto_sink, stats_stream, scenario/emit): objects, arrays,
 * strings with the common escapes, numbers, booleans, null. Used by
 * the structural trace checker (obs/trace_check.hh) and the tests --
 * deliberately not a general-purpose library, and no third-party
 * dependency.
 */

#ifndef AMSC_OBS_JSON_MIN_HH
#define AMSC_OBS_JSON_MIN_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace amsc::obs
{

/** One parsed JSON value (tree-owning). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text; ///< String payload.
    std::vector<JsonValue> items;
    /** Object members, insertion order preserved. */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/**
 * Parse @p text. Returns true and fills @p out on success; on failure
 * returns false with a position-annotated message in @p error.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

} // namespace amsc::obs

#endif // AMSC_OBS_JSON_MIN_HH
