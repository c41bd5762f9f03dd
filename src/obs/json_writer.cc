#include "obs/json_writer.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace csim {

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

JsonWriter::JsonWriter(std::ostream &out)
    : out_(out)
{
}

void
JsonWriter::beforeValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasElement_.empty()) {
        if (hasElement_.back())
            out_ << ',';
        hasElement_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out_ << '{';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    CSIM_ASSERT(!hasElement_.empty() && !pendingKey_);
    hasElement_.pop_back();
    out_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out_ << '[';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    CSIM_ASSERT(!hasElement_.empty() && !pendingKey_);
    hasElement_.pop_back();
    out_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    CSIM_ASSERT(!pendingKey_);
    beforeValue();
    out_ << jsonQuote(name) << ':';
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    beforeValue();
    out_ << jsonQuote(v);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    if (!std::isfinite(v)) {
        out_ << "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    out_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    beforeValue();
    out_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    out_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beforeValue();
    out_ << "null";
    return *this;
}

} // namespace csim
