#include "fleet/campaign.h"

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <variant>

#include "kernels/kernel.h"
#include "nvm/retention_policy.h"
#include "obs/json.h"
#include "runner/journal.h"
#include "trace/trace_generator.h"
#include "util/fs.h"
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
    std::istringstream in(list);
    for (std::string item; std::getline(in, item, ',');) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** The profiles of "all" or a comma list of 1..5; empty when any entry
 *  is not a whole number from 1 to 5. */
std::vector<int>
profileList(const std::string &profiles)
{
    if (profiles == "all")
        return {1, 2, 3, 4, 5};
    std::vector<int> out;
    double p = 0;
    for (const std::string &item : splitList(profiles)) {
        if (!util::parseNumber(item, &p) ||
            !util::inRange({"", util::FlagKind::integer, 1, 5}, p))
            return {};
        out.push_back(static_cast<int>(p));
    }
    return out;
}

/** "" when @p value is one of the comma-separated @p names, else
 *  @p names. */
std::string
oneOf(const std::string &value, const std::string &names)
{
    const std::vector<std::string> list = splitList(names);
    return std::count(list.begin(), list.end(), value) ? "" : names;
}

using Field =
    std::variant<std::string CampaignSpec::*, double CampaignSpec::*,
                 std::uint64_t CampaignSpec::*, int CampaignSpec::*,
                 bool CampaignSpec::*>;

/** One campaign knob: its flag row (named by JSON key), the spec field
 *  it sets, and any rule beyond kind and range, which returns "" when
 *  the spec's value is accepted, else what is accepted. */
struct Knob
{
    util::Flag flag;
    Field field;
    std::string (*check)(const CampaignSpec &) = nullptr;
};

/** The campaign knobs, each declared once: the `nvpsim` config flags
 *  and the campaign file keys both come from here. A new knob also
 *  needs its effect in campaignConfig and its value appended to
 *  campaignFingerprintExtra (Campaign.EveryKnobFeedsTheFingerprint
 *  fails until it has one). */
const std::vector<Knob> &
knobs()
{
    using K = util::FlagKind;
    using S = const CampaignSpec &;
    static const std::vector<Knob> table = {
        {{"kernels", K::text}, &CampaignSpec::kernels},
        {{"profiles", K::text}, &CampaignSpec::profiles,
         [](S s) -> std::string {
             return profileList(s.profiles).empty() ? "all or 1..5, "
                                                      "comma-separated"
                                                    : "";
         }},
        {{"seconds", K::number, 0, 1e6}, &CampaignSpec::seconds,
         [](S s) -> std::string {
             return traceSamples(s.seconds) >= 1
                        ? ""
                        : "long enough for one 0.1 ms trace sample";
         }},
        {{"seed", K::integer}, &CampaignSpec::seed},
        {{"mode", K::text}, &CampaignSpec::mode,
         [](S s) { return oneOf(s.mode, "precise,fixed,dynamic"); }},
        {{"bits", K::integer, 1, 8}, &CampaignSpec::bits},
        {{"minbits", K::integer, 1, 8}, &CampaignSpec::minbits},
        {{"policy", K::text}, &CampaignSpec::policy,
         [](S s) { return oneOf(s.policy, "full,linear,log,parabola"); }},
        {{"baseline", K::toggle}, &CampaignSpec::baseline},
        {{"engine", K::text}, &CampaignSpec::engine,
         [](S s) {
             return oneOf(s.engine, "default," + nvp::execEngineNames());
         }},
        {{"strategy", K::text}, &CampaignSpec::strategy,
         [](S s) { return oneOf(s.strategy, sim::strategyNames()); }},
        {{"income_scale", K::number, 0, 1e6}, &CampaignSpec::income_scale},
        {{"frame_factor", K::number, 0, 1e6}, &CampaignSpec::frame_factor},
    };
    return table;
}

std::string
flagName(std::string key)
{
    std::replace(key.begin(), key.end(), '_', '-');
    return key;
}

/**
 * Set @p spec from the knob members of @p doc, checking each against
 * its row: kind, then range (a value outside it is never cast), then
 * the row's rule. "" on success, else the error, naming the knob by its
 * flag (@p cli) or its campaign key.
 */
std::string
parseKnobs(const obs::JsonValue &doc, bool cli, CampaignSpec *spec)
{
    using J = obs::JsonValue::Kind;
    for (const auto &[key, value] : doc.members()) {
        const auto knob =
            std::find_if(knobs().begin(), knobs().end(),
                         [&](const Knob &k) { return k.flag.name == key; });
        if (knob == knobs().end())
            return "unknown campaign key '" + key + "'";
        // The JSON kind of each FlagKind, in enum order.
        static const J kJson[] = {J::boolean, J::string, J::number,
                                  J::number, J::string};
        const J want = kJson[static_cast<int>(knob->flag.kind)];
        if (value.kind() != want)
            return "campaign key '" + key + "' has the wrong type";
        const std::string label =
            cli ? "--" + flagName(key) : "campaign " + key;
        // Range first: a value outside it is never cast.
        if (want == J::number && !util::inRange(knob->flag, value.number()))
            return util::format("%s must be %s, got '%g'", label.c_str(),
                                util::rangeText(knob->flag).c_str(),
                                value.number());
        std::visit(
            [&](auto member) {
                auto &slot = spec->*member;
                using T = std::decay_t<decltype(slot)>;
                if constexpr (std::is_same_v<T, std::string>)
                    slot = value.string();
                else if constexpr (std::is_same_v<T, bool>)
                    slot = value.boolean();
                else
                    slot = static_cast<T>(value.number());
            },
            knob->field);
        const std::string valid = knob->check ? knob->check(*spec) : "";
        if (!valid.empty())
            return want == J::string
                       ? util::format("unknown %s '%s' (%s)", label.c_str(),
                                      value.string().c_str(), valid.c_str())
                       : util::format("%s must be %s, got '%g'",
                                      label.c_str(), valid.c_str(),
                                      value.number());
    }
    return "";
}

} // namespace

std::size_t
traceSamples(double seconds)
{
    return static_cast<std::size_t>(seconds * 1e4);
}

std::vector<util::Flag>
campaignFlags(bool grid)
{
    std::vector<util::Flag> out;
    for (const Knob &knob : knobs()) {
        const std::string &key = knob.flag.name;
        if (grid || (key != "kernels" && key != "profiles"))
            out.push_back({flagName(key), knob.flag.kind, knob.flag.min,
                           knob.flag.max});
    }
    return out;
}

CampaignSpec
campaignFromFlags(const util::Flags &flags)
{
    obs::JsonValue doc = obs::JsonValue::object();
    for (const Knob &knob : knobs()) {
        const std::string name = flagName(knob.flag.name);
        if (flags.find(name) == nullptr || !flags.has(name))
            continue;
        const util::FlagKind kind = knob.flag.kind;
        doc.set(knob.flag.name,
                kind == util::FlagKind::toggle ? obs::JsonValue::of(true)
                : kind == util::FlagKind::text
                    ? obs::JsonValue::of(flags.text(name))
                    : obs::JsonValue::of(flags.num(name, 0.0)));
    }
    CampaignSpec spec;
    const std::string error = parseKnobs(doc, true, &spec);
    if (!error.empty())
        flags.fail(error);
    return spec;
}

bool
campaignFromJson(const std::string &text, CampaignSpec *out,
                 std::string *error)
{
    CampaignSpec spec;
    obs::JsonValue doc;
    std::string err;
    if (!obs::parseJson(text, &doc, &err))
        err = "campaign JSON: " + err;
    else if (!doc.isObject())
        err = "campaign JSON must be one object";
    else
        err = parseKnobs(doc, false, &spec);
    if (err.empty())
        *out = spec;
    else if (error)
        *error = err;
    return err.empty();
}

bool
loadCampaignFile(const std::string &path, CampaignSpec *out,
                 std::string *error)
{
    std::string text;
    std::string err;
    if (!util::readFile(path, &text))
        err = "cannot open campaign file '" + path + "'";
    else if (!campaignFromJson(text, out, &err))
        err = path + ": " + err;
    if (!err.empty() && error)
        *error = err;
    return err.empty();
}

std::string
campaignToJson(const CampaignSpec &spec)
{
    obs::JsonValue doc = obs::JsonValue::object();
    for (const Knob &knob : knobs()) {
        std::visit(
            [&](auto member) {
                const auto &slot = spec.*member;
                using T = std::decay_t<decltype(slot)>;
                if constexpr (std::is_arithmetic_v<T> &&
                              !std::is_same_v<T, bool>)
                    doc.set(knob.flag.name,
                            obs::JsonValue::of(static_cast<double>(slot)));
                else
                    doc.set(knob.flag.name, obs::JsonValue::of(slot));
            },
            knob.field);
    }
    return doc.dump();
}

sim::SimConfig
campaignConfig(const CampaignSpec &spec)
{
    // A spec is valid iff it round-trips through the campaign-file
    // parser, so code-built specs get the file checks.
    CampaignSpec checked;
    std::string error;
    if (!campaignFromJson(campaignToJson(spec), &checked, &error))
        util::fatal("%s", error.c_str());

    sim::SimConfig cfg;
    cfg.seed = spec.seed;
    if (spec.mode == "precise") {
        cfg.bits.mode = approx::ApproxMode::precise;
    } else if (spec.mode == "fixed") {
        cfg.bits.mode = approx::ApproxMode::fixed;
        cfg.bits.fixed_bits = spec.bits;
    } else {
        cfg.bits.mode = approx::ApproxMode::dynamic;
        cfg.bits.min_bits = spec.minbits;
    }
    cfg.controller.backup_policy = nvm::policyFromName(spec.policy);
    if (spec.baseline) {
        cfg.controller.roll_forward = false;
        cfg.controller.simd_adoption = false;
        cfg.controller.history_spawn = false;
        cfg.controller.process_newest_first = false;
    }
    cfg.income_scale = spec.income_scale;
    cfg.frame_period_factor = spec.frame_factor;
    if (spec.engine != "default")
        cfg.core.engine = *nvp::execEngineFromName(spec.engine);
    cfg.strategy = *sim::strategyFromName(spec.strategy);
    return cfg;
}

runner::SweepSpec
buildSweepSpec(const CampaignSpec &spec, bool collect_metrics)
{
    const sim::SimConfig cfg = campaignConfig(spec);
    runner::SweepSpec sweep;
    sweep.kernels = spec.kernels == "all" ? kernels::kernelNames()
                                          : splitList(spec.kernels);
    if (sweep.kernels.empty())
        util::fatal("campaign lists no kernels");
    // Validate up front: makeKernel() fatals on unknown names, which
    // must happen on the caller's thread, not inside a worker.
    for (const auto &name : sweep.kernels)
        kernels::makeKernel(name);

    for (const int profile : profileList(spec.profiles)) {
        trace::TraceGenerator gen(trace::paperProfile(profile),
                                  spec.seed);
        sweep.traces.push_back(gen.generate(traceSamples(spec.seconds)));
    }

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
    // from its flags since journals were introduced — changing it would
    // orphan every existing journal.
    return util::format(
        "mode=%s bits=%d minbits=%d policy=%s baseline=%d "
        "engine=%s strategy=%s income-scale=%.17g "
        "frame-factor=%.17g metrics=%d",
        spec.mode.c_str(), spec.bits, spec.minbits,
        spec.policy.c_str(), spec.baseline ? 1 : 0,
        spec.engine.c_str(), spec.strategy.c_str(), spec.income_scale,
        spec.frame_factor, collect_metrics ? 1 : 0);
}

std::string
campaignFingerprint(const CampaignSpec &campaign,
                    const runner::SweepSpec &spec,
                    const std::vector<runner::JobSpec> &jobs)
{
    return runner::SweepJournal::fingerprint(
        spec, jobs,
        campaignFingerprintExtra(campaign, spec.collect_metrics));
}

} // namespace inc::fleet
