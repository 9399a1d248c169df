#include "fleet/campaign.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "kernels/kernel.h"
#include "nvm/retention_policy.h"
#include "obs/json.h"
#include "trace/trace_generator.h"
#include "util/logging.h"

namespace inc::fleet
{

namespace
{

/** Split a comma-separated list ("a,b,c"); empty string -> empty. */
std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(list);
    while (std::getline(in, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

bool
member(const obs::JsonValue &doc, const std::string &key,
       obs::JsonValue::Kind kind, const obs::JsonValue **out,
       std::string *error)
{
    const obs::JsonValue *v = doc.find(key);
    if (!v) {
        *out = nullptr;
        return true;
    }
    if (v->kind() != kind) {
        *error = "campaign key '" + key + "' has the wrong type";
        return false;
    }
    *out = v;
    return true;
}

} // namespace

bool
campaignFromJson(const std::string &text, CampaignSpec *out,
                 std::string *error)
{
    std::string err;
    obs::JsonValue doc;
    if (!obs::parseJson(text, &doc, &err)) {
        if (error)
            *error = "campaign JSON: " + err;
        return false;
    }
    if (!doc.isObject()) {
        if (error)
            *error = "campaign JSON must be one object";
        return false;
    }

    static const char *const kKnown[] = {
        "kernels", "profiles", "seconds",      "seed",
        "mode",    "bits",     "minbits",      "policy",
        "baseline", "engine",  "strategy",     "income_scale",
        "frame_factor"};
    for (const auto &[key, value] : doc.members()) {
        (void)value;
        bool known = false;
        for (const char *k : kKnown)
            known = known || key == k;
        if (!known) {
            if (error)
                *error = "unknown campaign key '" + key + "'";
            return false;
        }
    }

    CampaignSpec spec;
    std::string merr;
    const obs::JsonValue *v = nullptr;
    using Kind = obs::JsonValue::Kind;
    if (!member(doc, "kernels", Kind::string, &v, &merr))
        goto fail;
    if (v)
        spec.kernels = v->string();
    if (!member(doc, "profiles", Kind::string, &v, &merr))
        goto fail;
    if (v)
        spec.profiles = v->string();
    if (!member(doc, "seconds", Kind::number, &v, &merr))
        goto fail;
    if (v)
        spec.seconds = v->number();
    if (!member(doc, "seed", Kind::number, &v, &merr))
        goto fail;
    if (v)
        spec.seed = static_cast<std::uint64_t>(v->number());
    if (!member(doc, "mode", Kind::string, &v, &merr))
        goto fail;
    if (v)
        spec.mode = v->string();
    if (!member(doc, "bits", Kind::number, &v, &merr))
        goto fail;
    if (v)
        spec.bits = static_cast<int>(v->number());
    if (!member(doc, "minbits", Kind::number, &v, &merr))
        goto fail;
    if (v)
        spec.minbits = static_cast<int>(v->number());
    if (!member(doc, "policy", Kind::string, &v, &merr))
        goto fail;
    if (v)
        spec.policy = v->string();
    if (!member(doc, "baseline", Kind::boolean, &v, &merr))
        goto fail;
    if (v)
        spec.baseline = v->boolean();
    if (!member(doc, "engine", Kind::string, &v, &merr))
        goto fail;
    if (v)
        spec.engine = v->string();
    if (!member(doc, "strategy", Kind::string, &v, &merr))
        goto fail;
    if (v)
        spec.strategy = v->string();
    if (!member(doc, "income_scale", Kind::number, &v, &merr))
        goto fail;
    if (v)
        spec.income_scale = v->number();
    if (!member(doc, "frame_factor", Kind::number, &v, &merr))
        goto fail;
    if (v)
        spec.frame_factor = v->number();

    *out = spec;
    return true;

fail:
    if (error)
        *error = merr;
    return false;
}

bool
loadCampaignFile(const std::string &path, CampaignSpec *out,
                 std::string *error)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        if (error)
            *error = "cannot open campaign file '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    std::string err;
    if (!campaignFromJson(ss.str(), out, &err)) {
        if (error)
            *error = path + ": " + err;
        return false;
    }
    return true;
}

std::string
campaignToJson(const CampaignSpec &spec)
{
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("kernels", obs::JsonValue::of(spec.kernels));
    doc.set("profiles", obs::JsonValue::of(spec.profiles));
    doc.set("seconds", obs::JsonValue::of(spec.seconds));
    doc.set("seed", obs::JsonValue::of(
                        static_cast<double>(spec.seed)));
    doc.set("mode", obs::JsonValue::of(spec.mode));
    doc.set("bits", obs::JsonValue::of(static_cast<double>(spec.bits)));
    doc.set("minbits",
            obs::JsonValue::of(static_cast<double>(spec.minbits)));
    doc.set("policy", obs::JsonValue::of(spec.policy));
    doc.set("baseline", obs::JsonValue::of(spec.baseline));
    doc.set("engine", obs::JsonValue::of(spec.engine));
    doc.set("strategy", obs::JsonValue::of(spec.strategy));
    doc.set("income_scale", obs::JsonValue::of(spec.income_scale));
    doc.set("frame_factor", obs::JsonValue::of(spec.frame_factor));
    return doc.dump();
}

sim::SimConfig
campaignConfig(const CampaignSpec &spec)
{
    sim::SimConfig cfg;
    cfg.seed = spec.seed;
    if (spec.mode == "precise") {
        cfg.bits.mode = approx::ApproxMode::precise;
    } else if (spec.mode == "fixed") {
        cfg.bits.mode = approx::ApproxMode::fixed;
        cfg.bits.fixed_bits = spec.bits;
    } else if (spec.mode == "dynamic") {
        cfg.bits.mode = approx::ApproxMode::dynamic;
        cfg.bits.min_bits = spec.minbits;
    } else {
        util::fatal("unknown campaign mode '%s' (precise, fixed, "
                    "dynamic)",
                    spec.mode.c_str());
    }
    cfg.controller.backup_policy = nvm::policyFromName(spec.policy);
    if (spec.baseline) {
        cfg.controller.roll_forward = false;
        cfg.controller.simd_adoption = false;
        cfg.controller.history_spawn = false;
        cfg.controller.process_newest_first = false;
    }
    if (spec.income_scale >= 0.0)
        cfg.income_scale = spec.income_scale;
    if (spec.frame_factor >= 0.0)
        cfg.frame_period_factor = spec.frame_factor;
    if (spec.engine != "default") {
        const auto parsed = nvp::execEngineFromName(spec.engine);
        if (!parsed)
            util::fatal("unknown campaign engine '%s' (%s)",
                        spec.engine.c_str(),
                        nvp::execEngineNames().c_str());
        cfg.core.engine = *parsed;
    }
    if (!spec.strategy.empty()) {
        const auto parsed = sim::strategyFromName(spec.strategy);
        if (!parsed)
            util::fatal("unknown campaign strategy '%s' (%s)",
                        spec.strategy.c_str(),
                        sim::strategyNames().c_str());
        cfg.strategy = *parsed;
    }
    return cfg;
}

runner::SweepSpec
buildSweepSpec(const CampaignSpec &spec, bool collect_metrics)
{
    runner::SweepSpec sweep;
    sweep.kernels = spec.kernels == "all" ? kernels::kernelNames()
                                          : splitList(spec.kernels);
    if (sweep.kernels.empty())
        util::fatal("campaign lists no kernels");
    // Validate up front: makeKernel() fatals on unknown names, which
    // must happen on the caller's thread, not inside a worker.
    for (const auto &name : sweep.kernels)
        kernels::makeKernel(name);

    std::vector<int> profiles;
    if (spec.profiles == "all") {
        profiles = {1, 2, 3, 4, 5};
    } else {
        for (const auto &p : splitList(spec.profiles))
            profiles.push_back(std::atoi(p.c_str()));
    }
    for (const int profile : profiles) {
        trace::TraceGenerator gen(trace::paperProfile(profile),
                                  spec.seed);
        sweep.traces.push_back(gen.generate(
            static_cast<std::size_t>(spec.seconds * 1e4)));
    }

    const sim::SimConfig cfg = campaignConfig(spec);
    sweep.variants = {{spec.mode,
                       [cfg](const std::string &) { return cfg; }}};
    sweep.master_seed = spec.seed;
    sweep.collect_metrics = collect_metrics;
    return sweep;
}

std::string
campaignFingerprintExtra(const CampaignSpec &spec, bool collect_metrics)
{
    // Byte-identical to the string `nvpsim sweep --arena` has derived
    // from its flags since PR 6 — changing it would orphan every
    // existing journal.
    const sim::SimConfig cfg = campaignConfig(spec);
    return util::format(
        "mode=%s bits=%d minbits=%d policy=%s baseline=%d "
        "engine=%s strategy=%s income-scale=%.17g "
        "frame-factor=%.17g metrics=%d",
        spec.mode.c_str(), spec.bits, spec.minbits,
        spec.policy.c_str(), spec.baseline ? 1 : 0,
        spec.engine.c_str(), sim::strategyName(cfg.strategy),
        cfg.income_scale, cfg.frame_period_factor,
        collect_metrics ? 1 : 0);
}

} // namespace inc::fleet
