#include "workloads/suite.hh"

#include <stdexcept>

namespace javelin {
namespace workloads {

namespace {

/**
 * Profile calibration notes. Volumes are paper-scale megabytes; the
 * study scale (DESIGN.md §2) divides them by 16 at build time. Values
 * are chosen to reproduce the paper's per-benchmark statements:
 * _213_javac GC-bound at 32 MB (up to 60% JVM energy), _222_mpegaudio
 * compute-bound with the largest optimizing-compiler share, _209_db
 * dominated by scans of a long-lived database (locality-sensitive),
 * fop class-loader-heavy (24% CL), DaCapo live sets that do not fit
 * the copying collectors at 32 MB (the paper starts DaCapo at 48 MB),
 * and JGF kernels that are mostly floating-point compute over arrays.
 */
std::vector<BenchmarkProfile>
makeProfiles()
{
    std::vector<BenchmarkProfile> v;
    auto add = [&](BenchmarkProfile p) { v.push_back(std::move(p)); };

    // ---- SpecJVM98 (-s100) ----
    {
        BenchmarkProfile p;
        p.name = "_201_compress";
        p.suite = "SpecJVM98";
        p.allocMB = 105;
        p.liveMB = 7;
        p.meanObjBytes = 128;
        p.arrayFraction = 0.70;
        p.meanArrayLen = 1024;
        p.shortFraction = 0.80;
        p.linkedFraction = 0.0;
        p.computePerIterK = 18;
        p.fpFraction = 0.05;
        p.scratchKB = 96;
        p.traversePerIterK = 0;
        p.appClasses = 12;
        p.bootClasses = 140;
        p.coldMethods = 40;
        p.coldCallsPerIter = 1;
        p.classMetadataBytes = 1200;
        p.nativeUopsPerIter = 700;
        p.seed = 201;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "_202_jess";
        p.suite = "SpecJVM98";
        p.allocMB = 260;
        p.liveMB = 4;
        p.meanObjBytes = 48;
        p.arrayFraction = 0.05;
        p.shortFraction = 0.85;
        p.linkedFraction = 0.08;
        p.computePerIterK = 5;
        p.fpFraction = 0.05;
        p.scratchKB = 24;
        p.traversePerIterK = 1;
        p.appClasses = 28;
        p.bootClasses = 150;
        p.coldMethods = 120;
        p.coldCallsPerIter = 2;
        p.seed = 202;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "_209_db";
        p.suite = "SpecJVM98";
        p.allocMB = 80;
        p.liveMB = 9;
        p.meanObjBytes = 56;
        p.arrayFraction = 0.10;
        p.shortFraction = 0.40;
        p.linkedFraction = 0.05;
        p.computePerIterK = 3;
        p.fpFraction = 0.0;
        p.scratchKB = 16;
        p.traversePerIterK = 7; // heavy scans of the resident database
        p.appClasses = 10;
        p.bootClasses = 130;
        p.coldMethods = 30;
        p.coldCallsPerIter = 1;
        p.seed = 209;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "_213_javac";
        p.suite = "SpecJVM98";
        p.allocMB = 260;
        p.liveMB = 8;
        p.meanObjBytes = 64;
        p.arrayFraction = 0.12;
        p.shortFraction = 0.72;
        p.linkedFraction = 0.16;
        p.listResetIters = 6;
        p.computePerIterK = 4;
        p.fpFraction = 0.0;
        p.scratchKB = 32;
        p.traversePerIterK = 0;
        p.appClasses = 48;
        p.bootClasses = 170;
        p.coldMethods = 200;
        p.coldCallsPerIter = 3;
        p.classMetadataBytes = 1800;
        p.seed = 213;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "_222_mpegaudio";
        p.suite = "SpecJVM98";
        p.allocMB = 5;
        p.liveMB = 2;
        p.meanObjBytes = 72;
        p.arrayFraction = 0.50;
        p.meanArrayLen = 512;
        p.shortFraction = 0.90;
        p.linkedFraction = 0.0;
        p.computePerIterK = 30;
        p.fpFraction = 0.80;
        p.scratchKB = 12; // L1-resident decode tables
        p.traversePerIterK = 0;
        p.appClasses = 14;
        p.bootClasses = 130;
        p.coldMethods = 30;
        p.coldCallsPerIter = 1;
        p.nativeUopsPerIter = 1500;
        p.nativeBytesPerIter = 2048;
        p.seed = 222;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "_227_mtrt";
        p.suite = "SpecJVM98";
        p.allocMB = 145;
        p.liveMB = 6;
        p.meanObjBytes = 40;
        p.arrayFraction = 0.15;
        p.shortFraction = 0.85;
        p.linkedFraction = 0.05;
        p.computePerIterK = 9;
        p.fpFraction = 0.75;
        p.scratchKB = 24;
        p.traversePerIterK = 1;
        p.appClasses = 20;
        p.bootClasses = 140;
        p.coldMethods = 60;
        p.coldCallsPerIter = 2;
        p.seed = 227;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "_228_jack";
        p.suite = "SpecJVM98";
        p.allocMB = 230;
        p.liveMB = 4;
        p.meanObjBytes = 48;
        p.arrayFraction = 0.20;
        p.shortFraction = 0.85;
        p.linkedFraction = 0.08;
        p.computePerIterK = 4;
        p.fpFraction = 0.0;
        p.scratchKB = 20;
        p.traversePerIterK = 0;
        p.appClasses = 32;
        p.bootClasses = 150;
        p.coldMethods = 160;
        p.coldCallsPerIter = 3;
        p.seed = 228;
        add(p);
    }

    // ---- DaCapo (default inputs). Live sets are sized so the copying
    // collectors cannot run them in a 32 MB heap — the reason the paper
    // reports DaCapo from 48 MB up. ----
    {
        BenchmarkProfile p;
        p.name = "antlr";
        p.suite = "DaCapo";
        p.allocMB = 250;
        p.liveMB = 13;
        p.meanObjBytes = 56;
        p.arrayFraction = 0.10;
        p.shortFraction = 0.80;
        p.linkedFraction = 0.10;
        p.computePerIterK = 5;
        p.fpFraction = 0.0;
        p.scratchKB = 24;
        p.traversePerIterK = 1;
        p.appClasses = 40;
        p.bootClasses = 180;
        p.coldMethods = 260;
        p.coldCallsPerIter = 3;
        p.classMetadataBytes = 2000;
        p.seed = 301;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "fop";
        p.suite = "DaCapo";
        p.allocMB = 120;
        p.liveMB = 12;
        p.meanObjBytes = 72;
        p.arrayFraction = 0.12;
        p.shortFraction = 0.75;
        p.linkedFraction = 0.10;
        p.computePerIterK = 4;
        p.fpFraction = 0.10;
        p.scratchKB = 24;
        p.traversePerIterK = 1;
        p.appClasses = 64;
        p.bootClasses = 220;
        p.coldMethods = 640; // the class-loader-heavy benchmark (24% CL)
        p.coldCallsPerIter = 7;
        p.classMetadataBytes = 2600;
        p.cpEntries = 40;
        p.seed = 302;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "jython";
        p.suite = "DaCapo";
        p.allocMB = 360;
        p.liveMB = 12;
        p.meanObjBytes = 48;
        p.arrayFraction = 0.08;
        p.shortFraction = 0.85;
        p.linkedFraction = 0.08;
        p.computePerIterK = 4;
        p.fpFraction = 0.0;
        p.scratchKB = 24;
        p.traversePerIterK = 1;
        p.appClasses = 48;
        p.bootClasses = 200;
        p.coldMethods = 400;
        p.coldCallsPerIter = 4;
        p.classMetadataBytes = 2000;
        p.seed = 303;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "pmd";
        p.suite = "DaCapo";
        p.allocMB = 290;
        p.liveMB = 14;
        p.meanObjBytes = 52;
        p.arrayFraction = 0.08;
        p.shortFraction = 0.70;
        p.linkedFraction = 0.20;
        p.listResetIters = 10;
        p.computePerIterK = 4;
        p.fpFraction = 0.0;
        p.scratchKB = 24;
        p.traversePerIterK = 2;
        p.appClasses = 44;
        p.bootClasses = 190;
        p.coldMethods = 300;
        p.coldCallsPerIter = 3;
        p.seed = 304;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "ps";
        p.suite = "DaCapo";
        p.allocMB = 180;
        p.liveMB = 11;
        p.meanObjBytes = 60;
        p.arrayFraction = 0.25;
        p.shortFraction = 0.85;
        p.linkedFraction = 0.05;
        p.computePerIterK = 8;
        p.fpFraction = 0.25;
        p.scratchKB = 48;
        p.traversePerIterK = 1;
        p.appClasses = 30;
        p.bootClasses = 170;
        p.coldMethods = 120;
        p.coldCallsPerIter = 2;
        p.seed = 305;
        add(p);
    }

    // ---- Java Grande Forum (size A) ----
    {
        BenchmarkProfile p;
        p.name = "euler";
        p.suite = "JGF";
        p.allocMB = 140;
        p.liveMB = 10;
        p.meanObjBytes = 96;
        p.arrayFraction = 0.70;
        p.meanArrayLen = 1024;
        p.shortFraction = 0.60;
        p.linkedFraction = 0.0;
        p.computePerIterK = 18;
        p.fpFraction = 0.85;
        p.scratchKB = 128;
        p.traversePerIterK = 1;
        p.appClasses = 10;
        p.bootClasses = 110;
        p.coldMethods = 24;
        p.coldCallsPerIter = 1;
        p.seed = 401;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "moldyn";
        p.suite = "JGF";
        p.allocMB = 14;
        p.liveMB = 3;
        p.meanObjBytes = 64;
        p.arrayFraction = 0.60;
        p.meanArrayLen = 512;
        p.shortFraction = 0.80;
        p.linkedFraction = 0.0;
        p.computePerIterK = 32;
        p.fpFraction = 0.90;
        p.scratchKB = 48;
        p.traversePerIterK = 0;
        p.appClasses = 8;
        p.bootClasses = 100;
        p.coldMethods = 20;
        p.coldCallsPerIter = 1;
        p.seed = 402;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "raytracer";
        p.suite = "JGF";
        p.allocMB = 150;
        p.liveMB = 5;
        p.meanObjBytes = 40;
        p.arrayFraction = 0.10;
        p.shortFraction = 0.90;
        p.linkedFraction = 0.02;
        p.computePerIterK = 14;
        p.fpFraction = 0.85;
        p.scratchKB = 16;
        p.traversePerIterK = 0;
        p.appClasses = 12;
        p.bootClasses = 100;
        p.coldMethods = 24;
        p.coldCallsPerIter = 1;
        p.seed = 403;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "search";
        p.suite = "JGF";
        p.allocMB = 30;
        p.liveMB = 3;
        p.meanObjBytes = 32;
        p.arrayFraction = 0.10;
        p.shortFraction = 0.90;
        p.linkedFraction = 0.05;
        p.computePerIterK = 12;
        p.fpFraction = 0.05;
        p.scratchKB = 16;
        p.traversePerIterK = 0;
        p.appClasses = 8;
        p.bootClasses = 100;
        p.coldMethods = 20;
        p.coldCallsPerIter = 1;
        p.seed = 404;
        add(p);
    }

    return v;
}

/**
 * Synthetic (non-paper) profiles: resolvable through benchmark() for
 * tests and micro-benchmarks, but deliberately excluded from
 * allBenchmarks() so the paper matrices (fig drivers, the fig07-edp
 * builtin scenario and its pinned fixtures) keep exactly the sixteen
 * paper benchmarks.
 */
std::vector<BenchmarkProfile>
makeSyntheticProfiles()
{
    std::vector<BenchmarkProfile> v;
    {
        // Call-density stress: jess-like allocation at a fraction of
        // the compute, with a deep helper chain, per-iteration
        // recursion and many cold calls through the dispatch tree, so
        // Call/Ret dominate the bytecode stream (frames turn over
        // every ~5-10 bytecodes). The allocation volume is kept small
        // enough that the alloc loops do not drown out the call
        // machinery this benchmark exists to stress. Drives
        // BM_EndToEndCallHeavy and the call-heavy golden run.
        BenchmarkProfile p;
        p.name = "call_heavy";
        p.suite = "Synthetic";
        p.allocMB = 240;
        p.liveMB = 4;
        p.meanObjBytes = 48;
        p.arrayFraction = 0.05;
        p.shortFraction = 0.85;
        p.linkedFraction = 0.05;
        p.computePerIterK = 1;
        p.fpFraction = 0.05;
        p.scratchKB = 16;
        p.traversePerIterK = 0;
        p.appClasses = 28;
        p.bootClasses = 150;
        p.coldMethods = 160;
        p.coldCallsPerIter = 12;
        p.callChainDepth = 160;
        p.chainInvokesPerIter = 6;
        p.recurseDepth = 200;
        p.nativeUopsPerIter = 200;
        p.seed = 555;
        v.push_back(std::move(p));
    }
    return v;
}

} // namespace

const std::vector<BenchmarkProfile> &
allBenchmarks()
{
    static const std::vector<BenchmarkProfile> profiles = makeProfiles();
    return profiles;
}

const std::vector<BenchmarkProfile> &
syntheticBenchmarks()
{
    static const std::vector<BenchmarkProfile> profiles =
        makeSyntheticProfiles();
    return profiles;
}

const BenchmarkProfile &
benchmark(const std::string &name)
{
    for (const auto &p : allBenchmarks())
        if (p.name == name)
            return p;
    for (const auto &p : syntheticBenchmarks())
        if (p.name == name)
            return p;
    throw std::invalid_argument("unknown benchmark: " + name);
}

std::vector<BenchmarkProfile>
suiteBenchmarks(const std::string &suite)
{
    std::vector<BenchmarkProfile> out;
    for (const auto &p : allBenchmarks())
        if (p.suite == suite)
            out.push_back(p);
    return out;
}

std::vector<BenchmarkProfile>
embeddedBenchmarks()
{
    // Section VI-E: _201_compress, _202_jess, _209_db, _213_javac,
    // _228_jack at -s10.
    return {benchmark("_201_compress"), benchmark("_202_jess"),
            benchmark("_209_db"), benchmark("_213_javac"),
            benchmark("_228_jack")};
}

} // namespace workloads
} // namespace javelin
