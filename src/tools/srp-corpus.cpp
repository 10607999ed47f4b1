//===- tools/srp-corpus.cpp - Differential fuzzing corpus driver ----------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sweeps generated programs through the six-mode differential oracle,
/// Strictness::Full between-pass verification, and engine parity — walk
/// and native(JIT) against bytecode (gen/Corpus.h) — with remark-coverage
/// feedback steering generation toward under-exercised promoters and
/// §4.3 rejection reasons.
///
///   srp-corpus -seeds=50                      # the tier-1 smoke sweep
///   srp-corpus -seeds=1000 -threads=8         # the full nightly sweep
///   srp-corpus -seeds=50 -require-coverage    # also fail on coverage gaps
///   srp-corpus -seeds=50 -json                # machine-readable report
///   srp-corpus -seeds=20 -save-failures=DIR   # one .mc per failure
///
/// Exit status: 0 clean, 1 failures found (or coverage gaps with
/// -require-coverage), 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "gen/Corpus.h"
#include "support/JSON.h"
#include "support/Options.h"
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

using namespace srp;
using namespace srp::gen;

namespace {

void printCoverage(const CorpusReport &R) {
  std::printf("coverage: promoters");
  for (const std::string &K : requiredPromoters())
    std::printf(" %s=%llu", K.c_str(),
                (unsigned long long)R.Coverage.promoter(K));
  std::printf("\ncoverage: rejections");
  for (const std::string &K : requiredRejections())
    std::printf(" %s=%llu", K.c_str(),
                (unsigned long long)R.Coverage.rejection(K));
  std::printf("\n");
}

void printJson(const CorpusOptions &Opts, const CorpusReport &R) {
  std::printf("{\n  \"programs\": %u,\n  \"passed\": %u,\n", R.NumPrograms,
              R.NumPassed);
  std::printf("  \"first_seed\": %llu,\n",
              (unsigned long long)Opts.FirstSeed);
  std::printf("  \"profiles\": {");
  bool First = true;
  for (const auto &[K, V] : R.ProfilePrograms) {
    std::printf("%s\n    \"%s\": %llu", First ? "" : ",", K.c_str(),
                (unsigned long long)V);
    First = false;
  }
  std::printf("\n  },\n  \"promoters\": {");
  First = true;
  for (const auto &[K, V] : R.Coverage.Promoters) {
    std::printf("%s\n    \"%s\": %llu", First ? "" : ",", K.c_str(),
                (unsigned long long)V);
    First = false;
  }
  std::printf("\n  },\n  \"rejections\": {");
  First = true;
  for (const auto &[K, V] : R.Coverage.Rejections) {
    std::printf("%s\n    \"%s\": %llu", First ? "" : ",", K.c_str(),
                (unsigned long long)V);
    First = false;
  }
  std::printf("\n  },\n  \"failures\": [");
  First = true;
  for (const CorpusFailure &F : R.Failures) {
    std::printf("%s\n    {\"seed\": %llu, \"profile\": \"%s\", "
                "\"signature\": \"%s\", \"detail\": \"%s\"}",
                First ? "" : ",", (unsigned long long)F.Seed,
                shapeProfileName(F.Profile), json::escape(F.Signature).c_str(),
                json::escape(F.Detail).c_str());
    First = false;
  }
  std::printf("\n  ]\n}\n");
}

} // namespace

int main(int argc, char **argv) {
  CorpusOptions Opts;
  bool RequireCoverage = false, Json = false, Quiet = false;
  std::string SaveDir;

  auto parseU = [](const std::string &V, unsigned &Out) {
    if (V.empty())
      return false;
    for (char C : V)
      if (C < '0' || C > '9')
        return false;
    Out = unsigned(std::strtoul(V.c_str(), nullptr, 10));
    return Out > 0;
  };

  opt::OptionParser OP("srp-corpus", "[options]");
  OP.value("seeds", "<n>", "programs to sweep (default 50)",
           [&](const std::string &V) { return parseU(V, Opts.Count); });
  OP.value("first-seed", "<n>", "first seed (default 1)",
           [&](const std::string &V) {
             Opts.FirstSeed = std::strtoull(V.c_str(), nullptr, 10);
             return !V.empty();
           });
  OP.value("threads", "<n>", "worker threads (default 0 = hardware)",
           [&](const std::string &V) {
             Opts.Threads = unsigned(std::strtoul(V.c_str(), nullptr, 10));
             return !V.empty();
           });
  OP.value("batch", "<n>", "seeds per parallel batch (default 32)",
           [&](const std::string &V) { return parseU(V, Opts.BatchSize); });
  OP.value("max-failures", "<n>", "stop after n failures (default 16)",
           [&](const std::string &V) {
             return parseU(V, Opts.MaxFailures);
           });
  OP.value("verify", "<off|fast|full|no-semantic>",
           "between-pass verification depth (default full; the fuzz "
           "contract — full also translation-validates every pass; "
           "no-semantic is full without the validator)",
           [&](const std::string &V) {
             if (V == "off") {
               Opts.Check.VerifyEachStep = false;
               return true;
             }
             if (V == "fast") {
               Opts.Check.Verify = Strictness::Fast;
               return true;
             }
             if (V == "full") {
               Opts.Check.Verify = Strictness::Full;
               return true;
             }
             if (V == "no-semantic") {
               Opts.Check.Verify = Strictness::Full;
               Opts.Check.Semantic = false;
               return true;
             }
             return false;
           });
  OP.flag("no-parity", "skip every engine-parity run (walk and native)",
          [&] {
            Opts.Check.EngineParity = false;
            Opts.Check.NativeParity = false;
          });
  OP.value("engines", "<list>",
           "comma-separated parity engines to run against bytecode "
           "(default walk,native; \"none\" disables parity)",
           [&](const std::string &V) {
             Opts.Check.EngineParity = false;
             Opts.Check.NativeParity = false;
             if (V == "none")
               return true;
             size_t Pos = 0;
             while (Pos <= V.size()) {
               size_t Comma = V.find(',', Pos);
               std::string E = V.substr(Pos, Comma == std::string::npos
                                                 ? std::string::npos
                                                 : Comma - Pos);
               if (E == "walk")
                 Opts.Check.EngineParity = true;
               else if (E == "native")
                 Opts.Check.NativeParity = true;
               else
                 return false;
               if (Comma == std::string::npos)
                 break;
               Pos = Comma + 1;
             }
             return true;
           });
  OP.flag("no-feedback", "disable coverage-guided profile steering",
          [&] { Opts.Feedback = false; });
  OP.flag("require-coverage",
          "exit 1 if any required promoter or rejection reason never "
          "fired during the sweep",
          [&] { RequireCoverage = true; });
  OP.value("save-failures", "<dir>",
           "write each failing program to dir/seedN.mc",
           [&](const std::string &V) {
             SaveDir = V;
             return !V.empty();
           });
  OP.flag("json", "print the report as JSON instead of text",
          [&] { Json = true; });
  OP.flag("quiet", "no per-batch progress lines", [&] { Quiet = true; });

  switch (OP.parse(argc, argv)) {
  case opt::ParseResult::Ok:
    break;
  case opt::ParseResult::Help:
    return 0;
  case opt::ParseResult::Error:
    return 2;
  }

  CorpusProgressFn Progress;
  if (!Quiet && !Json)
    Progress = [](unsigned Done, unsigned Total, const CorpusReport &R) {
      std::fprintf(stderr, "srp-corpus: %u/%u programs, %zu failures, %zu "
                           "coverage keys missing\n",
                   Done, Total, R.Failures.size(),
                   R.Coverage.missingRequired().size());
    };

  CorpusReport R = runCorpus(Opts, Progress);

  if (!SaveDir.empty())
    for (const CorpusFailure &F : R.Failures) {
      std::string Path =
          SaveDir + "/seed" + std::to_string(F.Seed) + ".mc";
      std::ofstream Out(Path);
      Out << "// srp-gen -seed=" << F.Seed << " -profile="
          << shapeProfileName(F.Profile) << "\n// " << F.Signature << ": "
          << F.Detail << "\n" << F.Source;
      if (!Out)
        std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
    }

  std::vector<std::string> Missing = R.Coverage.missingRequired();
  if (Json) {
    printJson(Opts, R);
  } else {
    std::printf("srp-corpus: %u programs, %u passed, %zu failed\n",
                R.NumPrograms, R.NumPassed, R.Failures.size());
    printCoverage(R);
    for (const std::string &K : Missing)
      std::printf("coverage MISSING: %s\n", K.c_str());
    for (const CorpusFailure &F : R.Failures)
      std::printf("FAIL seed %llu: %s\n  %s\n  reproduce: srp-gen -seed=%llu "
                  "-profile=%s\n",
                  (unsigned long long)F.Seed, F.Signature.c_str(),
                  F.Detail.c_str(), (unsigned long long)F.Seed,
                  shapeProfileName(F.Profile));
  }

  if (!R.Failures.empty())
    return 1;
  if (RequireCoverage && !Missing.empty())
    return 1;
  return 0;
}
