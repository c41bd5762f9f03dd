/**
 * @file
 * The one JSON encoder behind every artifact the simulator writes.
 *
 * The bench report (harness/json_report.hh), the NDJSON run ledger
 * (obs/run_ledger.hh) and the Chrome trace (obs/chrome_trace.hh) all
 * encode here, so one set of escaping and number rules holds for all
 * three. docs/SCHEMA.md ("JSON encoding") states them.
 */

#ifndef CSIM_OBS_JSON_WRITER_HH
#define CSIM_OBS_JSON_WRITER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace csim {

/**
 * `s` as a quoted JSON string: `"` and `\` get a backslash, newline,
 * tab and carriage return their short escapes, every other byte below
 * 0x20 becomes \u00XX, and all other bytes (UTF-8 included) pass
 * through unchanged.
 */
std::string jsonQuote(const std::string &s);

/**
 * Minimal streaming JSON writer. The caller drives the structure
 * (beginObject/key/value/...); the writer places the commas and
 * writes compact JSON (no whitespace, no newlines).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);
    JsonWriter &null();

  private:
    void beforeValue();

    std::ostream &out_;
    /** One frame per open container: true once it holds an element. */
    std::vector<bool> hasElement_;
    bool pendingKey_ = false;
};

} // namespace csim

#endif // CSIM_OBS_JSON_WRITER_HH
