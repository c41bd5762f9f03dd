#include "obs/stats_registry.hh"

#include "common/logging.hh"

namespace csim {

namespace {

/** Dotted lowerCamel names: segments of [A-Za-z0-9_-], '.'-separated. */
bool
validStatName(const std::string &name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.')
        return false;
    bool prev_dot = false;
    for (char c : name) {
        if (c == '.') {
            if (prev_dot)
                return false;
            prev_dot = true;
            continue;
        }
        prev_dot = false;
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// StatsSnapshot

void
StatsSnapshot::add(const std::string &name, StatValue v)
{
    if (index_.count(name))
        CSIM_PANIC_F("StatsSnapshot: duplicate stat '%s'", name.c_str());
    index_.emplace(name, entries_.size());
    entries_.emplace_back(name, std::move(v));
}

bool
StatsSnapshot::has(const std::string &name) const
{
    return index_.count(name) != 0;
}

const StatValue &
StatsSnapshot::at(const std::string &name) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        CSIM_PANIC_F("StatsSnapshot: unknown stat '%s'", name.c_str());
    return entries_[it->second].second;
}

double
StatsSnapshot::value(const std::string &name) const
{
    return at(name).value;
}

void
StatsSnapshot::merge(const StatsSnapshot &other)
{
    for (const auto &[name, theirs] : other.entries()) {
        auto it = index_.find(name);
        if (it == index_.end()) {
            add(name, theirs);
            continue;
        }
        StatValue &mine = entries_[it->second].second;
        if (mine.kind != theirs.kind)
            CSIM_PANIC_F("StatsSnapshot: stat '%s' merged with "
                         "mismatched kind", name.c_str());
        switch (mine.kind) {
          case StatKind::Counter:
            mine.value += theirs.value;
            break;
          case StatKind::Distribution: {
            if (mine.buckets.size() != theirs.buckets.size() ||
                mine.lo != theirs.lo || mine.hi != theirs.hi)
                CSIM_PANIC_F("StatsSnapshot: distribution '%s' merged "
                             "with mismatched geometry", name.c_str());
            for (std::size_t i = 0; i < mine.buckets.size(); ++i)
                mine.buckets[i] += theirs.buckets[i];
            mine.value += theirs.value;  // total sample count
            break;
          }
          case StatKind::Formula: {
            // Running mean across the merged snapshots: a ratio like
            // CPI cannot be summed, so report the per-run average.
            const double total = mine.value *
                    static_cast<double>(mine.mergeCount) +
                theirs.value * static_cast<double>(theirs.mergeCount);
            mine.value = total /
                static_cast<double>(mine.mergeCount + theirs.mergeCount);
            break;
          }
        }
        mine.mergeCount += theirs.mergeCount;
    }
}

StatsSnapshot
StatsSnapshot::filtered(const std::vector<std::string> &prefixes) const
{
    if (prefixes.empty())
        return *this;
    StatsSnapshot out;
    for (const auto &[name, val] : entries_) {
        for (const std::string &prefix : prefixes) {
            if (name.compare(0, prefix.size(), prefix) == 0) {
                out.add(name, val);
                break;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// StatsRegistry

StatsRegistry::Entry &
StatsRegistry::newEntry(const std::string &name, StatKind kind)
{
    if (!validStatName(name))
        CSIM_PANIC_F("StatsRegistry: malformed stat name '%s'",
                     name.c_str());
    if (index_.count(name))
        CSIM_PANIC_F("StatsRegistry: duplicate stat name '%s'",
                     name.c_str());
    index_.emplace(name, entries_.size());
    Entry &e = entries_.emplace_back();
    e.name = name;
    e.kind = kind;
    return e;
}

Counter &
StatsRegistry::addCounter(const std::string &name)
{
    Entry &e = newEntry(name, StatKind::Counter);
    e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Histogram &
StatsRegistry::addDistribution(const std::string &name, unsigned buckets,
                               double lo, double hi)
{
    Entry &e = newEntry(name, StatKind::Distribution);
    e.dist = std::make_unique<Histogram>(buckets, lo, hi);
    return *e.dist;
}

void
StatsRegistry::addFormula(const std::string &name,
                          std::function<double()> fn)
{
    CSIM_ASSERT(fn != nullptr);
    Entry &e = newEntry(name, StatKind::Formula);
    e.formula = std::move(fn);
}

bool
StatsRegistry::has(const std::string &name) const
{
    return index_.count(name) != 0;
}

StatsSnapshot
StatsRegistry::snapshot() const
{
    StatsSnapshot snap;
    for (const Entry &e : entries_) {
        StatValue v;
        v.kind = e.kind;
        switch (e.kind) {
          case StatKind::Counter:
            v.value = static_cast<double>(e.counter->value());
            break;
          case StatKind::Distribution: {
            v.value = static_cast<double>(e.dist->total());
            v.lo = e.dist->lo();
            v.hi = e.dist->hi();
            v.buckets.reserve(e.dist->size());
            for (std::size_t i = 0; i < e.dist->size(); ++i)
                v.buckets.push_back(e.dist->bucket(i));
            break;
          }
          case StatKind::Formula:
            v.value = e.formula();
            break;
        }
        snap.add(e.name, std::move(v));
    }
    return snap;
}

void
StatsRegistry::resetMeasurement()
{
    for (Entry &e : entries_) {
        switch (e.kind) {
          case StatKind::Counter:
            e.counter->set(0);
            break;
          case StatKind::Distribution:
            e.dist->reset();
            break;
          case StatKind::Formula:
            break;
        }
    }
}

} // namespace csim
