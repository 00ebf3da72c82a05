#include "runtime/exposition.h"

#include <cctype>
#include <cmath>
#include <sstream>

namespace enode {

namespace {

/**
 * Keys under these prefixes are monotone event counts between resets;
 * everything else is a point-in-time value.
 */
bool
isCounterKey(const std::string &key)
{
    static const char *kPrefixes[] = {"requests.", "solve.", "watchdog.",
                                      "publisher.", "batch.size."};
    for (const char *prefix : kPrefixes)
        if (key.rfind(prefix, 0) == 0)
            return true;
    // The batch family mixes counts (dispatched/requests/partial
    // failures/skipped windows, plus the size histogram above) with
    // point-in-time occupancy and wait-percentile gauges.
    // The overload family mixes counters (sheds, relaxed solves,
    // transitions) with level/score/residency gauges, so its counters
    // are listed exactly rather than by prefix.
    // Same story for the model-registry family (published/swap counts
    // vs. the live-version and history-depth gauges) and the training
    // family (task/step counts vs. the last-loss gauge).
    static const char *kExact[] = {"batch.dispatched",
                                   "batch.requests",
                                   "batch.partial_failure",
                                   "batch.window_skipped",
                                   "cache.exact_hit",
                                   "cache.warm_hit",
                                   "cache.miss",
                                   "cache.evict",
                                   "cache.insert",
                                   "cache.single_flight_waits",
                                   "overload.sheds",
                                   "overload.relaxed_solves",
                                   "overload.transitions",
                                   "model.published",
                                   "model.swaps",
                                   "train.tasks",
                                   "train.task_failures",
                                   "train.task_retries",
                                   "train.steps",
                                   "train.published"};
    for (const char *exact : kExact)
        if (key == exact)
            return true;
    return false;
}

} // namespace

std::string
prometheusMetricName(const std::string &key, const std::string &ns)
{
    std::string name = ns.empty() ? "" : ns + "_";
    for (char c : key) {
        const bool legal = std::isalnum(static_cast<unsigned char>(c)) ||
                           c == '_' || c == ':';
        name += legal ? c : '_';
    }
    if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0])))
        name.insert(name.begin(), '_');
    return name;
}

std::string
prometheusText(const StatGroup &group, const std::string &ns)
{
    std::ostringstream os;
    for (const std::string &key : group.keys()) {
        const double value = group.get(key);
        if (!std::isfinite(value))
            continue; // the text format cannot carry NaN/Inf samples
        const std::string name = prometheusMetricName(key, ns);
        os << "# HELP " << name << ' ' << group.name()
           << (group.name().empty() ? "" : " ") << key << '\n';
        os << "# TYPE " << name << ' '
           << (isCounterKey(key) ? "counter" : "gauge") << '\n';
        os << name << ' ' << value << '\n';
    }
    return os.str();
}

} // namespace enode
