/**
 * @file
 * PersistenceBackend: where a simulator's "nonvolatile" byte buffers
 * live.
 *
 * The NVM-state owners (nvp::DataMemory's data memory + RAC version
 * store, sim/active_checkpoint's image slots) allocate their backing
 * stores through this interface instead of owning vectors directly.
 * Two implementations:
 *
 *   - HeapBackend: plain heap buffers, behaviour identical to the
 *     pre-arena vectors. A null backend pointer means the same for
 *     nvp::DataMemory; a null-backed sim::ImageStore instead
 *     materializes no image at all (its checkpoints are never read).
 *
 *   - ArenaBackend: buffers carved out of an arena::Arena's mmap'd
 *     data heap. Contents survive process death, so a re-created
 *     owner that acquires the same names warm-restarts with the bytes
 *     it had when the previous process was killed — the simulated NVM
 *     finally behaves like the NVM it models.
 *
 * acquire() is a get-or-create: *existed reports whether persisted
 * content was found (callers use it to distinguish cold boot from warm
 * restart). Returned pointers stay valid for the backend's lifetime.
 */

#ifndef INC_ARENA_BACKEND_H
#define INC_ARENA_BACKEND_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arena/arena.h"

namespace inc::arena
{

class PersistenceBackend
{
  public:
    virtual ~PersistenceBackend() = default;

    /**
     * Get-or-create the named buffer. A fresh buffer is zero-filled;
     * an existing one (same name, same size) returns its persisted
     * bytes and sets *existed. A size mismatch discards the old
     * buffer and creates fresh.
     */
    virtual std::uint8_t *acquire(const std::string &name,
                                  std::size_t bytes,
                                  bool *existed = nullptr) = 0;

    /** Drop the named buffer (no-op when absent). */
    virtual void release(const std::string &name) = 0;
};

/** Transient heap storage — bit-compatible with the pre-arena vectors. */
class HeapBackend final : public PersistenceBackend
{
  public:
    std::uint8_t *acquire(const std::string &name, std::size_t bytes,
                          bool *existed = nullptr) override;
    void release(const std::string &name) override;

  private:
    std::map<std::string, std::vector<std::uint8_t>> buffers_;
};

/** File-resident storage in an arena's mmap'd data heap. Allocations
 *  are committed immediately so the block index survives a crash even
 *  when the owner never reaches an explicit arena commit. */
class ArenaBackend final : public PersistenceBackend
{
  public:
    explicit ArenaBackend(Arena *arena) : arena_(arena) {}

    std::uint8_t *acquire(const std::string &name, std::size_t bytes,
                          bool *existed = nullptr) override;
    void release(const std::string &name) override;

    Arena *arena() { return arena_; }

  private:
    Arena *arena_;
};

} // namespace inc::arena

#endif // INC_ARENA_BACKEND_H
