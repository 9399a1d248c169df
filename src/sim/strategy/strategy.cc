#include "sim/strategy/strategy.h"

#include "nvp/memory.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "util/bit_ops.h"
#include "util/logging.h"

namespace inc::sim
{

namespace
{

/** Modeled restore copy-loop cost per image byte, us (2 cycles @ 1 MHz). */
constexpr double kRestoreUsPerByte = 2.0;

/** ondemand: stored-energy fractions whose downward crossing triggers a
 *  snapshot. */
constexpr std::array<double, 2> kWatermarks{0.6, 0.3};

} // namespace

const std::array<StrategyKind, kNumStrategies> &
allStrategies()
{
    static const std::array<StrategyKind, kNumStrategies> kAll = {
        StrategyKind::active,
        StrategyKind::freezer,
        StrategyKind::ondemand,
    };
    return kAll;
}

const char *
strategyName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::active:
        return "active";
      case StrategyKind::freezer:
        return "freezer";
      case StrategyKind::ondemand:
        return "ondemand";
    }
    util::panic("strategyName: bad kind %d", static_cast<int>(kind));
}

std::string
strategyNames()
{
    std::string names;
    for (StrategyKind kind : allStrategies()) {
        if (!names.empty())
            names += ",";
        names += strategyName(kind);
    }
    return names;
}

std::optional<StrategyKind>
strategyFromName(const std::string &name)
{
    for (StrategyKind kind : allStrategies()) {
        if (name == strategyName(kind))
            return kind;
    }
    return std::nullopt;
}

CheckpointStrategy::CheckpointStrategy(StrategyKind kind,
                                       double backup_nj_per_byte,
                                       nvp::DataMemory *mem)
    : mem_(mem), backup_nj_per_byte_(backup_nj_per_byte), kind_(kind)
{
    if (!mem_)
        util::fatal("CheckpointStrategy requires a data memory");
}

CheckpointStrategy::~CheckpointStrategy() = default;

void
CheckpointStrategy::onSample(std::size_t, double)
{
}

void
CheckpointStrategy::onRestore(std::size_t)
{
    ++stats_.restores;
    if (commits_ > 0) {
        const auto bytes = static_cast<std::uint64_t>(mem_->size());
        stats_.restore_bytes += bytes;
        stats_.restore_latency_us +=
            static_cast<double>(bytes) * kRestoreUsPerByte;
    }
}

void
CheckpointStrategy::onColdBoot(std::size_t)
{
}

void
CheckpointStrategy::commit()
{
    next_slot_ ^= 1;
    ++commits_;
}

void
CheckpointStrategy::commitFullImage()
{
    const std::size_t bytes = mem_->size();
    commit();
    const std::uint64_t words =
        bytes / nvp::DataMemory::kDirtyWordBytes;
    stats_.backup_bytes += bytes;
    stats_.words_written += words;
    stats_.words_tracked += words;
    stats_.backup_energy_nj +=
        static_cast<double>(bytes) * backup_nj_per_byte_;
}

void
CheckpointStrategy::publish(obs::MetricsRegistry &m) const
{
    const auto count = [&m](const char *name, std::uint64_t v) {
        m.counter(name).value += v;
    };
    count(obs::kCkptBackups, stats_.backups);
    count(obs::kCkptSnapshots, stats_.snapshots);
    count(obs::kCkptBackupBytes, stats_.backup_bytes);
    count(obs::kCkptRestores, stats_.restores);
    count(obs::kCkptRestoreBytes, stats_.restore_bytes);
    count(obs::kCkptWordsWritten, stats_.words_written);
    count(obs::kCkptWordsTracked, stats_.words_tracked);
    m.gauge(obs::kCkptBackupEnergy).value += stats_.backup_energy_nj;
    m.gauge(obs::kCkptRestoreLatency).value += stats_.restore_latency_us;
    m.counter(std::string(obs::kCkptStrategyPrefix) + strategyName(kind_))
        .value += 1;
}

namespace
{

/** The full-image baseline: every backup persists the whole memory. */
class ActiveStrategy final : public CheckpointStrategy
{
  public:
    using CheckpointStrategy::CheckpointStrategy;

    void onBackup(std::size_t) override
    {
        ++stats_.backups;
        commitFullImage();
    }
};

/**
 * Freezer-style dirty-word backup (arXiv 2101.09968).
 *
 * The store intercepts in nvp::DataMemory mark 4-byte words written
 * since the last clearDirty(). Because the image is double-buffered,
 * each slot needs its OWN notion of staleness: a word synced into slot
 * A at backup N is still stale in slot B at backup N+1. pending_[s]
 * accumulates words slot s has not absorbed yet; a backup folds the
 * memory's bitmap into BOTH pendings, clears it, then flushes the
 * pending set of the slot it commits. Both pendings start all-ones so
 * the first commit to each slot copies every word of the
 * pre-initialized memory before trusting incremental deltas. The
 * simulated memory (isa::kDataMemBytes) is a whole number of 64-word
 * bitmap entries, so every pending bit names a real word.
 */
class FreezerStrategy final : public CheckpointStrategy
{
  public:
    FreezerStrategy(StrategyKind kind, double backup_nj_per_byte,
                    nvp::DataMemory *mem)
        : CheckpointStrategy(kind, backup_nj_per_byte, mem)
    {
        mem_->enableDirtyTracking();
        mem_->clearDirty();
        const std::size_t words = mem_->dirtyBits().size();
        pending_[0].assign(words, ~std::uint64_t{0});
        pending_[1].assign(words, ~std::uint64_t{0});
    }

    void onBackup(std::size_t) override
    {
        ++stats_.backups;
        const std::vector<std::uint64_t> &dirty = mem_->dirtyBits();
        for (std::size_t i = 0; i < dirty.size(); ++i) {
            pending_[0][i] |= dirty[i];
            pending_[1][i] |= dirty[i];
        }
        mem_->clearDirty();

        std::uint64_t written = 0;
        for (std::uint64_t &bits : pending_[next_slot_]) {
            written += static_cast<std::uint64_t>(util::popcount64(bits));
            bits = 0;
        }
        commit();
        const std::size_t total_words =
            mem_->size() / nvp::DataMemory::kDirtyWordBytes;
        const std::uint64_t copied =
            written * nvp::DataMemory::kDirtyWordBytes;
        stats_.backup_bytes += copied;
        stats_.words_written += written;
        stats_.words_tracked += total_words;
        stats_.backup_energy_nj +=
            static_cast<double>(copied) * backup_nj_per_byte_;
    }

  private:
    std::array<std::vector<std::uint64_t>, 2> pending_;
};

/**
 * Rapid-Recovery-style placement (arXiv 2209.08826): full snapshots at
 * the in-situ backup plus whenever the stored-energy fraction crosses a
 * configured watermark downward, keeping the committed image fresher at
 * the cost of extra snapshot writes. The previous-fraction tracker is
 * reset across restores/cold boots so the charging ramp after an outage
 * never reads as a downward crossing.
 */
class OndemandStrategy final : public CheckpointStrategy
{
  public:
    using CheckpointStrategy::CheckpointStrategy;

    void onBackup(std::size_t) override
    {
        ++stats_.backups;
        commitFullImage();
        have_prev_ = false;
    }

    void onSample(std::size_t, double stored_fraction) override
    {
        if (have_prev_) {
            for (double mark : kWatermarks) {
                if (prev_fraction_ >= mark && stored_fraction < mark) {
                    ++stats_.snapshots;
                    commitFullImage();
                    break;
                }
            }
        }
        prev_fraction_ = stored_fraction;
        have_prev_ = true;
    }

    void onRestore(std::size_t sample) override
    {
        CheckpointStrategy::onRestore(sample);
        have_prev_ = false;
    }

    void onColdBoot(std::size_t) override { have_prev_ = false; }

  private:
    double prev_fraction_ = 0.0;
    bool have_prev_ = false;
};

} // namespace

std::unique_ptr<CheckpointStrategy>
makeStrategy(StrategyKind kind, double backup_nj_per_byte,
             nvp::DataMemory *mem)
{
    switch (kind) {
      case StrategyKind::active:
        return std::make_unique<ActiveStrategy>(kind, backup_nj_per_byte,
                                                mem);
      case StrategyKind::freezer:
        return std::make_unique<FreezerStrategy>(kind, backup_nj_per_byte,
                                                 mem);
      case StrategyKind::ondemand:
        return std::make_unique<OndemandStrategy>(kind,
                                                  backup_nj_per_byte, mem);
    }
    util::panic("makeStrategy: bad kind %d", static_cast<int>(kind));
}

} // namespace inc::sim
