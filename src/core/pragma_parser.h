/**
 * @file
 * The paper's programming model (Sec. 5, Table 1) as a source-level
 * front end: "#pragma ac ..." directives embedded in assembly source,
 * the way the paper's programmer annotates C.
 *
 * Supported directives (each on its own line):
 *
 *   .region NAME ADDR SIZE
 *       Declare a named data-memory region (the "variables" pragmas
 *       refer to).
 *
 *   #pragma ac incidental(NAME, MINBITS, MAXBITS, POLICY)
 *       Region NAME may be approximated within [MINBITS, MAXBITS] and
 *       its backup storage uses retention POLICY (full/linear/log/
 *       parabola).
 *
 *   #pragma ac incidental_recover_from(rN)
 *       Register rN is the frame induction variable; the program must
 *       contain a markrp on rN (the compiler half of the paper's
 *       directive — we verify rather than synthesize).
 *
 *   #pragma ac recompute(NAME, MINBITS)
 *       Data in region NAME found "interesting" should be recomputed at
 *       >= MINBITS.
 *
 *   #pragma ac assemble(NAME, MODE)
 *       Merge recomputed results for region NAME with MODE
 *       (sum/max/min/higherbits).
 *
 * Directive lines are consumed by the front end; everything else goes
 * through the regular two-pass assembler. parse() returns the program
 * plus the structured configuration, and applyTo() pushes the memory
 * declarations into a DataMemory and the precision bounds into a
 * BitwidthConfig — the "compiler's role" of Sec. 5.
 */

#ifndef INC_CORE_PRAGMA_PARSER_H
#define INC_CORE_PRAGMA_PARSER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "approx/bitwidth_controller.h"
#include "isa/program.h"
#include "nvm/retention_policy.h"

namespace inc::nvp
{
class DataMemory;
} // namespace inc::nvp

namespace inc::core
{

/** A named data-memory region. */
struct NamedRegion
{
    std::uint32_t address = 0;
    std::uint32_t size = 0;
};

/** "#pragma ac incidental(...)" payload. */
struct IncidentalDirective
{
    std::string region;
    int min_bits = 1;
    int max_bits = 8;
    nvm::RetentionPolicy policy = nvm::RetentionPolicy::full;
};

/** "#pragma ac recompute(...)" payload. */
struct RecomputeDirective
{
    std::string region;
    int min_bits = 4;
};

/** "#pragma ac assemble(...)" payload. */
struct AssembleDirective
{
    std::string region;
    isa::AssembleMode mode = isa::AssembleMode::higherbits;
};

/** Everything the front end extracted from an annotated source file. */
struct AnnotatedProgram
{
    isa::Program program;
    std::map<std::string, NamedRegion> regions;
    std::vector<IncidentalDirective> incidental;
    std::vector<RecomputeDirective> recomputes;
    std::vector<AssembleDirective> assembles;
    int recover_register = -1; ///< -1: no incidental_recover_from

    /** Declare the incidental regions (AC + policies) on @p memory. */
    void applyRegions(nvp::DataMemory &memory) const;

    /**
     * Derive the bitwidth bounds from the incidental directives (the
     * tightest min and loosest max across regions; dynamic mode).
     */
    approx::BitwidthConfig bitwidthConfig() const;
};

/** Outcome of parsing annotated source. */
struct PragmaParseResult
{
    bool ok = false;
    AnnotatedProgram annotated;
    std::string error; ///< "line N: message" when !ok
};

/** Parse annotated assembly source. */
PragmaParseResult parseAnnotated(const std::string &source);

} // namespace inc::core

#endif // INC_CORE_PRAGMA_PARSER_H
