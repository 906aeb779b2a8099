#include "jvm/classloader.hh"

#include <algorithm>

#include "util/logging.hh"

namespace javelin {
namespace jvm {

namespace {

/** Dependent symbol-table probes per constant-pool entry. */
constexpr std::uint32_t kResolutionProbes = 2;

} // namespace

ClassLoader::ClassLoader(sim::System &system, core::ComponentPort &port,
                         const Program &program, const Config &config,
                         std::uint64_t seed)
    : system_(system), port_(port), program_(program), config_(config),
      rng_(seed), loaded_(program.classes.size(), false)
{
    if (config_.bootClassesPreloaded) {
        const std::uint32_t n =
            std::min<std::uint32_t>(config_.bootClassCount,
                                    static_cast<std::uint32_t>(
                                        loaded_.size()));
        for (std::uint32_t i = 0; i < n; ++i)
            loaded_[i] = true;
        loadedCount_ = n;
    }
}

void
ClassLoader::ensureLoaded(ClassId id)
{
    JAVELIN_ASSERT(id < loaded_.size(), "bad class id ", id);
    if (loaded_[id])
        return;
    core::ComponentScope scope(port_, core::ComponentId::ClassLoader);
    loadOne(id);
}

void
ClassLoader::loadOne(ClassId id)
{
    if (loaded_[id])
        return;
    loaded_[id] = true; // set first: classes may reference each other
    ++loadedCount_;
    ++depth_;

    const ClassInfo &cls = program_.classOf(id);
    sim::CpuModel &cpu = system_.cpu();

    const auto scaled = [&](double v) {
        return static_cast<std::uint32_t>(v * config_.costFactor);
    };

    // Parse pass: stream through the class metadata.
    const std::uint32_t bytes = cls.metadataBytes;
    for (std::uint32_t off = 0; off < bytes; off += 16) {
        cpu.load(cls.metadataAddr + off);
        cpu.execute(scaled(7), kClassLoaderCode, 28);
        if ((off & 0xff) == 0)
            system_.poll();
    }

    // Constant-pool resolution: dependent probes into the shared symbol
    // table (hash-spread, so mostly cache-cold — the stall-heavy phase
    // the paper sees on the PXA255).
    for (std::uint32_t e = 0; e < cls.constantPoolEntries; ++e) {
        std::uint64_t h = (static_cast<std::uint64_t>(id) << 20) ^
                          (e * 0x9e3779b97f4a7c15ULL);
        for (std::uint32_t probe = 0; probe < kResolutionProbes; ++probe) {
            h = h * 6364136223846793005ULL + 1442695040888963407ULL;
            cpu.load(kSymbolTableBase + (h % kSymbolTableBytes & ~7ULL));
            cpu.execute(scaled(9), kClassLoaderCode + 512, 36);
        }
        cpu.load(cls.metadataAddr + (e * 24) % cls.metadataBytes);
    }
    system_.poll();

    // Superclass is required; referenced classes load eagerly with some
    // probability (the rest stay lazy until first use).
    if (cls.super != kNoClass)
        loadOne(cls.super);
    if (depth_ < 16) {
        for (ClassId ref : cls.referencedClasses)
            if (!loaded_[ref] && rng_.bernoulli(config_.eagerLoadProbability))
                loadOne(ref);
    }
    --depth_;
}

} // namespace jvm
} // namespace javelin
