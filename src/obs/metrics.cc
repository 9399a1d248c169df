#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"
#include "util/fs.h"

namespace inc::obs
{

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds(std::move(upper_bounds)), counts(bounds.size() + 1, 0)
{
}

void
Histogram::record(double sample)
{
    std::size_t bucket = bounds.size();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (sample <= bounds[i]) {
            bucket = i;
            break;
        }
    }
    ++counts[bucket];
    ++total;
    sum += sample;
}

double
Histogram::percentile(double q) const
{
    if (total == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double rank = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const std::uint64_t next = seen + counts[i];
        if (static_cast<double>(next) >= rank) {
            if (i == bounds.size()) {
                // Overflow bucket: no upper edge to interpolate
                // toward. With no bounds at all, the mean is the only
                // estimate available.
                return bounds.empty()
                           ? sum / static_cast<double>(total)
                           : bounds.back();
            }
            const double lo = i == 0 ? 0.0 : bounds[i - 1];
            const double hi = bounds[i];
            const double into = rank - static_cast<double>(seen);
            return lo +
                   (hi - lo) * into / static_cast<double>(counts[i]);
        }
        seen = next;
    }
    return bounds.empty() ? sum / static_cast<double>(total)
                          : bounds.back();
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return gauges_[name];
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(std::move(bounds)))
                 .first;
    return it->second;
}

bool
MetricsRegistry::empty() const
{
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value;
}

double
MetricsRegistry::gaugeValue(const std::string &name) const
{
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second.value;
}

bool
MetricsRegistry::has(const std::string &name) const
{
    return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
           histograms_.count(name) != 0;
}

bool
MetricsRegistry::merge(const MetricsRegistry &other)
{
    bool clean = true;
    for (const auto &[name, c] : other.counters_)
        counters_[name].value += c.value;
    for (const auto &[name, g] : other.gauges_)
        gauges_[name].value += g.value;
    for (const auto &[name, h] : other.histograms_) {
        auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            histograms_.emplace(name, h);
            continue;
        }
        Histogram &mine = it->second;
        if (mine.bounds == h.bounds) {
            for (std::size_t i = 0; i < mine.counts.size(); ++i)
                mine.counts[i] += h.counts[i];
        } else {
            // Bucket layouts disagree (shouldn't happen between jobs of
            // one sweep); keep total/sum correct and report the loss.
            clean = false;
        }
        mine.total += h.total;
        mine.sum += h.sum;
    }
    return clean;
}

std::string
MetricsRegistry::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::of(std::string("inc-metrics-v1")));

    JsonValue counters = JsonValue::object();
    for (const auto &[name, c] : counters_)
        counters.set(name, JsonValue::of(c.value));
    doc.set("counters", std::move(counters));

    JsonValue gauges = JsonValue::object();
    for (const auto &[name, g] : gauges_)
        gauges.set(name, JsonValue::of(g.value));
    doc.set("gauges", std::move(gauges));

    JsonValue histograms = JsonValue::object();
    for (const auto &[name, h] : histograms_) {
        JsonValue hist = JsonValue::object();
        JsonValue bounds = JsonValue::array();
        for (const double b : h.bounds)
            bounds.push(JsonValue::of(b));
        hist.set("bounds", std::move(bounds));
        JsonValue counts = JsonValue::array();
        for (const std::uint64_t c : h.counts)
            counts.push(JsonValue::of(c));
        hist.set("counts", std::move(counts));
        hist.set("total", JsonValue::of(h.total));
        hist.set("sum", JsonValue::of(h.sum));
        // Derived summary fields, recomputed from the buckets on
        // every dump (never stored): fromJson() ignores them, so a
        // parse -> dump round trip stays byte-identical.
        hist.set("p50", JsonValue::of(h.percentile(0.50)));
        hist.set("p95", JsonValue::of(h.percentile(0.95)));
        hist.set("p99", JsonValue::of(h.percentile(0.99)));
        histograms.set(name, std::move(hist));
    }
    doc.set("histograms", std::move(histograms));

    return doc.dump() + "\n";
}

bool
MetricsRegistry::writeJson(const std::string &path) const
{
    return util::writeFile(path, toJson());
}

bool
MetricsRegistry::fromJson(const std::string &text, MetricsRegistry *out,
                          std::string *error)
{
    JsonValue doc;
    if (!parseJson(text, &doc, error))
        return false;
    if (!doc.isObject()) {
        if (error)
            *error = "metrics document is not an object";
        return false;
    }
    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->string() != "inc-metrics-v1") {
        if (error)
            *error = "missing or unknown metrics schema tag";
        return false;
    }

    MetricsRegistry reg;
    if (const JsonValue *counters = doc.find("counters")) {
        if (!counters->isObject()) {
            if (error)
                *error = "\"counters\" is not an object";
            return false;
        }
        for (const auto &[name, v] : counters->members()) {
            if (!v.isNumber()) {
                if (error)
                    *error = "counter \"" + name + "\" is not a number";
                return false;
            }
            reg.counter(name).value =
                static_cast<std::uint64_t>(v.number());
        }
    }
    if (const JsonValue *gauges = doc.find("gauges")) {
        if (!gauges->isObject()) {
            if (error)
                *error = "\"gauges\" is not an object";
            return false;
        }
        for (const auto &[name, v] : gauges->members()) {
            if (!v.isNumber()) {
                if (error)
                    *error = "gauge \"" + name + "\" is not a number";
                return false;
            }
            reg.gauge(name).value = v.number();
        }
    }
    if (const JsonValue *histograms = doc.find("histograms")) {
        if (!histograms->isObject()) {
            if (error)
                *error = "\"histograms\" is not an object";
            return false;
        }
        for (const auto &[name, v] : histograms->members()) {
            const JsonValue *bounds = v.find("bounds");
            const JsonValue *counts = v.find("counts");
            const JsonValue *total = v.find("total");
            const JsonValue *sum = v.find("sum");
            if (!v.isObject() || !bounds || !bounds->isArray() ||
                !counts || !counts->isArray() || !total ||
                !total->isNumber() || !sum || !sum->isNumber()) {
                if (error)
                    *error = "histogram \"" + name + "\" is malformed";
                return false;
            }
            std::vector<double> b;
            for (const JsonValue &item : bounds->items()) {
                if (!item.isNumber()) {
                    if (error)
                        *error = "histogram \"" + name +
                                 "\" has a non-numeric bound";
                    return false;
                }
                b.push_back(item.number());
            }
            Histogram h(std::move(b));
            if (counts->items().size() != h.counts.size()) {
                if (error)
                    *error = "histogram \"" + name +
                             "\" bucket count mismatch";
                return false;
            }
            for (std::size_t i = 0; i < h.counts.size(); ++i) {
                const JsonValue &item = counts->items()[i];
                if (!item.isNumber()) {
                    if (error)
                        *error = "histogram \"" + name +
                                 "\" has a non-numeric count";
                    return false;
                }
                h.counts[i] =
                    static_cast<std::uint64_t>(item.number());
            }
            h.total = static_cast<std::uint64_t>(total->number());
            h.sum = sum->number();
            reg.histograms_.emplace(name, std::move(h));
        }
    }
    if (out)
        *out = std::move(reg);
    return true;
}

namespace
{

bool
withinTolerance(double expected, double actual, double rel_tol,
                double abs_tol)
{
    const double diff = std::fabs(expected - actual);
    return diff <=
           std::max(abs_tol, rel_tol * std::fabs(expected));
}

template <typename Map, typename Fn>
void
compareKeyed(const Map &expected, const Map &actual,
             const std::string &kind, Fn &&compare_values,
             std::vector<std::string> *diffs)
{
    for (const auto &[name, e] : expected) {
        const auto it = actual.find(name);
        if (it == actual.end()) {
            diffs->push_back(kind + " \"" + name +
                             "\" missing from actual");
            continue;
        }
        compare_values(name, e, it->second);
    }
    for (const auto &[name, a] : actual) {
        (void)a;
        if (!expected.count(name))
            diffs->push_back(kind + " \"" + name +
                             "\" unexpected in actual");
    }
}

} // namespace

std::vector<std::string>
compareMetricsJson(const std::string &expected, const std::string &actual,
                   double rel_tol, double abs_tol)
{
    std::vector<std::string> diffs;
    MetricsRegistry e, a;
    std::string error;
    if (!MetricsRegistry::fromJson(expected, &e, &error)) {
        diffs.push_back("expected document unparseable: " + error);
        return diffs;
    }
    if (!MetricsRegistry::fromJson(actual, &a, &error)) {
        diffs.push_back("actual document unparseable: " + error);
        return diffs;
    }

    compareKeyed(e.counters(), a.counters(), "counter",
                 [&](const std::string &name, const Counter &ec,
                     const Counter &ac) {
                     if (ec.value != ac.value)
                         diffs.push_back(
                             "counter \"" + name + "\": expected " +
                             std::to_string(ec.value) + ", got " +
                             std::to_string(ac.value));
                 },
                 &diffs);
    compareKeyed(e.gauges(), a.gauges(), "gauge",
                 [&](const std::string &name, const Gauge &eg,
                     const Gauge &ag) {
                     if (!withinTolerance(eg.value, ag.value, rel_tol,
                                          abs_tol))
                         diffs.push_back(
                             "gauge \"" + name + "\": expected " +
                             formatJsonNumber(eg.value) + ", got " +
                             formatJsonNumber(ag.value));
                 },
                 &diffs);
    compareKeyed(
        e.histograms(), a.histograms(), "histogram",
        [&](const std::string &name, const Histogram &eh,
            const Histogram &ah) {
            if (eh.bounds != ah.bounds || eh.counts != ah.counts ||
                eh.total != ah.total)
                diffs.push_back("histogram \"" + name +
                                "\": bucket contents differ");
            else if (!withinTolerance(eh.sum, ah.sum, rel_tol, abs_tol))
                diffs.push_back("histogram \"" + name +
                                "\": expected sum " +
                                formatJsonNumber(eh.sum) + ", got " +
                                formatJsonNumber(ah.sum));
        },
        &diffs);
    return diffs;
}

} // namespace inc::obs
