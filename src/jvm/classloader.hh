/**
 * @file
 * Dynamic class loader (the CL component of Sections VI-A and VI-E).
 *
 * Loading a class walks its metadata (class-file parse), resolves its
 * constant-pool entries against a shared system symbol table (dependent
 * loads with poor locality), loads the superclass, and probabilistically
 * eager-loads referenced classes.
 *
 * The two VMs differ exactly as the paper describes: Jikes merges system
 * (boot) classes with the JVM binary so they cost nothing at run time,
 * while Kaffe loads every class lazily through this path — the source of
 * its long, CL-dominated initialization on the PXA255 (Fig. 11).
 */

#ifndef JAVELIN_JVM_CLASSLOADER_HH
#define JAVELIN_JVM_CLASSLOADER_HH

#include <vector>

#include "core/component_port.hh"
#include "jvm/program.hh"
#include "sim/system.hh"
#include "util/random.hh"

namespace javelin {
namespace jvm {

/**
 * Lazy class loader with a per-VM boot-class policy.
 */
class ClassLoader
{
  public:
    struct Config
    {
        /**
         * If true (Jikes), classes whose id is below bootClassCount are
         * considered merged into the VM image and load for free.
         */
        bool bootClassesPreloaded = true;
        /** Number of leading class ids considered boot classes. */
        std::uint32_t bootClassCount = 0;
        /** Probability of eagerly loading a referenced class. */
        double eagerLoadProbability = 0.35;
        /** Extra per-class overhead factor (Kaffe's parser is slower). */
        double costFactor = 1.0;
    };

    ClassLoader(sim::System &system, core::ComponentPort &port,
                const Program &program, const Config &config,
                std::uint64_t seed);

    /** Load a class (and its dependencies) if not yet loaded. */
    void ensureLoaded(ClassId id);

    bool
    isLoaded(ClassId id) const
    {
        return loaded_.at(id);
    }

    std::uint32_t classesLoaded() const { return loadedCount_; }

  private:
    void loadOne(ClassId id);

    /** Shared system symbol table footprint (256 KiB). */
    static constexpr Address kSymbolTableBase = kMetadataBase + 0x400000;
    static constexpr Address kSymbolTableBytes = 256 * 1024;

    sim::System &system_;
    core::ComponentPort &port_;
    const Program &program_;
    Config config_;
    Rng rng_;
    std::vector<bool> loaded_;
    std::uint32_t loadedCount_ = 0;
    std::uint32_t depth_ = 0;
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_CLASSLOADER_HH
