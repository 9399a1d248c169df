/**
 * @file
 * Campaign specification for the fleet service (`nvpsim serve`).
 *
 * A CampaignSpec is the JSON-file form of the `nvpsim sweep` flag set:
 * the kernel/profile grid, trace length and seed, and every SimConfig
 * knob that shapes a job. Both the serial sweep path and the fleet
 * coordinator/worker pair build their runner::SweepSpec through
 * buildSweepSpec() and derive their journal fingerprint through
 * campaignFingerprint(), so a campaign executed by any of the three
 * produces bit-identical jobs — the foundation of the fleet's
 * byte-identity guarantee (DESIGN.md §15).
 *
 * Every knob is declared once, in the knob table of campaign.cc: a
 * JSON key, a value kind and the accepted values. That table drives
 * campaignFromJson, campaignToJson, the `nvpsim sweep` flags and the
 * config flags of `run`/`report` (campaignFlags, campaignFromFlags); a
 * flag's name is its JSON key with '_' turned into '-'.
 *
 * Campaign JSON is one object; every member is optional and defaults
 * to the matching sweep-flag default, e.g.:
 *
 *   { "kernels": "sobel,median", "profiles": "2,3",
 *     "seconds": 0.5, "seed": 2017, "mode": "dynamic" }
 *
 * Unknown members, wrong types and values out of range are rejected —
 * a typoed knob silently meaning "use the default" would change
 * results without changing the fingerprint the user thinks they
 * pinned.
 */

#ifndef INC_FLEET_CAMPAIGN_H
#define INC_FLEET_CAMPAIGN_H

#include <cstdint>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "sim/system_sim.h"
#include "util/flags.h"

namespace inc::fleet
{

/** Declarative campaign: the `nvpsim sweep` flag set as data. */
struct CampaignSpec
{
    std::string kernels = "all";  ///< comma list or "all"
    std::string profiles = "all"; ///< comma list of 1..5 or "all"
    double seconds = 5.0;         ///< trace length per profile
    std::uint64_t seed = 2017;    ///< trace + master + config seed
    std::string mode = "dynamic"; ///< precise | fixed | dynamic
    int bits = 4;                 ///< fixed-mode bitwidth
    int minbits = 2;              ///< dynamic-mode floor
    std::string policy = "linear";
    bool baseline = false;
    /** Engine name, or "default" for the library default (the same
     *  convention as an absent `--engine`). */
    std::string engine = "default";
    std::string strategy = "active";
    /** SimConfig::income_scale and frame_period_factor. */
    double income_scale = sim::SimConfig().income_scale;
    double frame_factor = sim::SimConfig().frame_period_factor;
};

/** Trace samples (0.1 ms each) in @p seconds of trace. */
std::size_t traceSamples(double seconds);

/** The campaign knobs as flag rows named like the CLI flag ("income-
 *  scale"); without the sweep grid (kernels, profiles) unless @p grid. */
std::vector<util::Flag> campaignFlags(bool grid);

/** The campaign the declared knob flags of @p flags describe; absent
 *  flags keep their defaults. Fatal (via Flags::fail) on an unknown
 *  name such as `--engine batch`. */
CampaignSpec campaignFromFlags(const util::Flags &flags);

/** Parse campaign JSON. False + @p error on malformed input, an
 *  unknown member, a wrong type or a value the knob table rejects;
 *  @p out is untouched then. */
bool campaignFromJson(const std::string &text, CampaignSpec *out,
                      std::string *error);

/** Read + parse a campaign file. False + @p error on I/O or parse
 *  failure. */
bool loadCampaignFile(const std::string &path, CampaignSpec *out,
                      std::string *error);

/** Canonical JSON (sorted keys; round-trips through
 *  campaignFromJson). */
std::string campaignToJson(const CampaignSpec &spec);

/**
 * The campaign's SimConfig: the one resolver behind `nvpsim run`,
 * `report`, `sweep`, `serve` and `work`. A spec built in code gets the
 * checks a campaign file gets: fatal on a value the knob table
 * rejects, naming the valid ones.
 */
sim::SimConfig campaignConfig(const CampaignSpec &spec);

/**
 * Expand the campaign into a SweepSpec: validated kernel list, one
 * generated trace per profile, a single config variant named after the
 * mode. spec.jobs is left 0 — parallelism is the caller's scheduling
 * decision and never part of campaign identity. Fatal on empty or
 * unknown kernels/profiles.
 */
runner::SweepSpec buildSweepSpec(const CampaignSpec &spec,
                                 bool collect_metrics);

/**
 * The SweepJournal fingerprint "extra" string for this campaign (see
 * campaignFingerprint()). Every knob that shapes a job must feed it
 * (tests/test_fleet.cc loops over the knob table); its format must not
 * change, because every journal stores the fingerprint it feeds.
 */
std::string campaignFingerprintExtra(const CampaignSpec &spec,
                                     bool collect_metrics);

/**
 * The campaign's journal fingerprint: `nvpsim sweep --arena`, the
 * fleet coordinator and every worker derive it here, so all three agree
 * on campaign identity. @p spec is buildSweepSpec(@p campaign, ...) and
 * @p jobs its expansion.
 */
std::string campaignFingerprint(const CampaignSpec &campaign,
                                const runner::SweepSpec &spec,
                                const std::vector<runner::JobSpec> &jobs);

} // namespace inc::fleet

#endif // INC_FLEET_CAMPAIGN_H
