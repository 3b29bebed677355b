// Silent-corruption chaos vs the block-integrity layer (PR 10): checksums
// on write, verify-on-read with read-repair, and the background scrubber,
// exercised on the actual inversion pipeline.
//
// A real Hadoop cluster checksums every block because disks lie: a read
// can succeed with rotten bytes. This bench injects deterministic
// bit-rot (kCorruptBlock chaos events) into mid-run block copies and
// measures the blast radius with the defenses off and on:
//
//   clean        — no corruption, verification off: every integrity counter
//                  must be zero (the no-chaos path pays nothing), and two
//                  same-seed runs must produce bit-identical reports.
//   verify-clean — no corruption, verification on: checksums are computed
//                  and verified, nothing is detected or repaired, and the
//                  inverse still lands at machine epsilon.
//   blind        — corruption with verification off: reads silently succeed
//                  with flipped bits and the residual blows past 1e-3.
//   repair       — the same corruption with verification on: every read of
//                  a rotten copy is detected and read-repaired in place,
//                  the residual stays at machine epsilon, and two same-seed
//                  runs stay bit-identical.
//   scrub        — verification plus a background scrubber: every injected
//                  corruption is detected (scrub passes sweep the copies
//                  reads never touch) and repaired from a replica.
//   ec-scrub     — the same under RS(6,3) striping: repairs decode the bad
//                  cell from the surviving stripe (cells_repaired_ec).
//   spin-scrub   — the spin engine's memory tier: corrupted single-copy
//                  partitions are rebuilt by lineage recomputation
//                  (cells_repaired_lineage).
//
// Emits BENCH_pr10.json (--out PATH). --probe runs the same scenarios on a
// small matrix for the CI smoke step.
#include <cstring>
#include <vector>

#include "harness.hpp"

using namespace mri;
using namespace mri::bench;

namespace {

struct ScrubConfig {
  const char* name;
  bool verify = false;
  double scrub_interval_fraction = 0.0;  // of the clean run, 0 = no scrubber
  bool ec = false;                       // RS(6,3) instead of replication-3
  bool spin = false;                     // in-memory engine, lineage repair
  std::vector<ChaosEvent> events;

  /// The DFS and fault schedule this config runs under; the scrub interval
  /// is a fraction of the clean run's `clean_seconds`.
  WorldSpec world(double clean_seconds) const {
    WorldSpec w;
    if (ec) {
      w.dfs.storage_policy = dfs::StoragePolicy::kErasureCoded;
      w.dfs.ec.k = 6;
      w.dfs.ec.m = 3;
    }
    w.dfs.verify_checksums = verify;
    if (scrub_interval_fraction > 0.0) {
      w.dfs.scrub_interval_seconds = scrub_interval_fraction * clean_seconds;
    }
    w.chaos.events = events;
    return w;
  }

  core::InversionOptions options() const {
    core::InversionOptions opts;
    if (spin) {
      opts.engine = core::EngineKind::kSpin;
      opts.cache_capacity_bytes = 256ull << 20;
    }
    return opts;
  }
};

std::int64_t repaired_total(const IntegrityReport& i) {
  return i.cells_repaired_copy + i.cells_repaired_ec +
         i.cells_repaired_lineage;
}

/// Explicit --corrupt-block-style events: primary copies of the largest
/// blocks on a few nodes, early enough that the data is still re-read.
std::vector<ChaosEvent> explicit_corruptions(double clean_seconds,
                                             int nodes) {
  std::vector<ChaosEvent> events;
  const double fractions[] = {0.15, 0.30, 0.45};
  int node = 1;
  for (double f : fractions) {
    ChaosEvent e;
    e.kind = ChaosEventKind::kCorruptBlock;
    e.at = f * clean_seconds;
    e.node = node % nodes;
    e.salt = 0;  // pick the node's largest primary copy
    events.push_back(e);
    node += 2;
  }
  return events;
}

/// Bit-rot-style salted events for the spin scenario: the salt picks the
/// victim pseudo-randomly among the node's blocks, so with a handful of
/// events some land on memory-tier partitions (lineage repair territory).
std::vector<ChaosEvent> salted_corruptions(double clean_seconds, int nodes) {
  std::vector<ChaosEvent> events;
  for (int i = 0; i < 8; ++i) {
    ChaosEvent e;
    e.kind = ChaosEventKind::kCorruptBlock;
    e.at = (0.20 + 0.07 * i) * clean_seconds;
    e.node = 1 + (i % (nodes - 1));
    e.salt = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1) | 1;
    events.push_back(e);
  }
  return events;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli(argc, argv);
  const bool probe = cli.get_bool("probe", false);
  const int nodes = cli.get_int("nodes", 12);  // RS(6,3) needs 9 cells
  const double scale = cli.get_double("scale", 64.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const std::string out = cli.get_string("out", "BENCH_pr10.json");
  const double residual_bound = 1e-8;
  const double blind_bound = 1e-3;

  print_header("silent corruption vs checksums, read-repair and the "
               "scrubber",
               "end-to-end data integrity");

  const ScaledSetup setup = sweep_setup(probe, scale, nodes);

  // The clean run anchors corruption times and the scrub interval.
  ScrubConfig clean_spec{"clean", false, 0.0, false, false, {}};
  const auto run = [&](const ScrubConfig& spec, double anchor_seconds) {
    return run_mapreduce(setup, nodes, spec.options(), seed, nullptr, true,
                         spec.world(anchor_seconds));
  };
  const MrRun clean = run(clean_spec, 0.0);
  const double clean_seconds = clean.result.report.sim_seconds;
  const std::vector<ChaosEvent> corruptions =
      explicit_corruptions(clean_seconds, nodes);
  const std::vector<ChaosEvent> salted =
      salted_corruptions(clean_seconds, nodes);

  std::vector<ScrubConfig> configs;
  configs.push_back({"verify-clean", /*verify=*/true, 0.0, false, false, {}});
  configs.push_back({"blind", /*verify=*/false, 0.0, false, false,
                     corruptions});
  configs.push_back({"repair", /*verify=*/true, 0.0, false, false,
                     corruptions});
  configs.push_back({"scrub", /*verify=*/true, /*interval=*/0.25, false,
                     false, corruptions});
  configs.push_back({"ec-scrub", /*verify=*/true, /*interval=*/0.25,
                     /*ec=*/true, false, corruptions});
  configs.push_back({"spin-scrub", /*verify=*/true, /*interval=*/0.25, false,
                     /*spin=*/true, salted});

  struct Point {
    ScrubConfig spec;
    MrRun run;
  };
  std::vector<Point> points;
  points.push_back({clean_spec, clean});

  std::printf("%-12s %10s %9s %9s %9s %22s %7s %10s\n", "config", "hours",
              "injected", "detected", "repaired", "(copy/ec/lineage)",
              "scrubs", "residual");
  const auto print_row = [](const Point& p) {
    const IntegrityReport& i = p.run.run_report.integrity;
    std::printf("%-12s %10.4f %9lld %9lld %9lld %10lld/%4lld/%4lld %7lld "
                "%10.2e\n",
                p.spec.name, p.run.paper_hours(),
                static_cast<long long>(i.corruptions_injected),
                static_cast<long long>(i.corruptions_detected),
                static_cast<long long>(repaired_total(i)),
                static_cast<long long>(i.cells_repaired_copy),
                static_cast<long long>(i.cells_repaired_ec),
                static_cast<long long>(i.cells_repaired_lineage),
                static_cast<long long>(i.scrub_passes), p.run.residual);
  };
  print_row(points.front());
  for (const ScrubConfig& spec : configs) {
    Point p;
    p.spec = spec;
    p.run = run(spec, clean_seconds);
    MRI_REQUIRE(p.run.completed,
                spec.name << " run failed: " << p.run.error);
    print_row(p);
    points.push_back(std::move(p));
  }

  const auto find = [&](const char* name) -> const Point& {
    for (const Point& p : points) {
      if (std::strcmp(p.spec.name, name) == 0) return p;
    }
    MRI_REQUIRE(false, "no config named " << name);
    std::abort();
  };
  const Point& verify_clean = find("verify-clean");
  const Point& blind = find("blind");
  const Point& repair = find("repair");
  const Point& scrub = find("scrub");
  const Point& ec_scrub = find("ec-scrub");
  const Point& spin_scrub = find("spin-scrub");

  // ---- assertions ---------------------------------------------------------
  // clean: the integrity layer must cost literally nothing when off.
  const IntegrityReport& ci = clean.run_report.integrity;
  const bool clean_zero = !ci.verify_checksums && ci.cells_checksummed == 0 &&
                          ci.cells_verified == 0 && ci.bytes_verified == 0 &&
                          ci.corruptions_injected == 0 &&
                          ci.corruptions_detected == 0 &&
                          repaired_total(ci) == 0 &&
                          ci.cells_quarantined == 0 && ci.scrub_passes == 0 &&
                          ci.repairs.empty() && ci.scrub_spans.empty() &&
                          clean.residual < residual_bound;

  // clean determinism: a second identical run must be bit-identical.
  const MrRun clean2 = run(clean_spec, 0.0);
  const bool clean_deterministic =
      clean2.completed && clean2.report_json == clean.report_json;

  // verify-clean: checksums computed and verified, nothing found.
  const IntegrityReport& vi = verify_clean.run.run_report.integrity;
  const bool verify_clean_ok =
      vi.verify_checksums && vi.cells_checksummed > 0 &&
      vi.cells_verified > 0 && vi.corruptions_injected == 0 &&
      vi.corruptions_detected == 0 && repaired_total(vi) == 0 &&
      verify_clean.run.residual < residual_bound;

  // blind: corruption lands, nothing notices, the inverse is garbage.
  const IntegrityReport& bi = blind.run.run_report.integrity;
  const bool blind_ok = bi.corruptions_injected >= 1 &&
                        bi.corruptions_detected == 0 &&
                        repaired_total(bi) == 0 &&
                        blind.run.residual > blind_bound;

  // repair: verification turns the same corruption into epsilon residual.
  const IntegrityReport& ri = repair.run.run_report.integrity;
  const bool repair_ok = ri.corruptions_injected >= 1 &&
                         ri.corruptions_detected >= 1 &&
                         ri.corruptions_detected == repaired_total(ri) &&
                         ri.corruptions_detected <= ri.corruptions_injected &&
                         repair.run.residual < residual_bound;

  // repair determinism: a second identical corrupted run, bit for bit.
  const MrRun repair2 = run(repair.spec, clean_seconds);
  const bool repair_deterministic =
      repair2.completed && repair2.report_json == repair.run.report_json;

  // scrub: the scrubber closes the gap — 100% of corruptions detected and
  // repaired whether or not a read ever touched the rotten copy — and its
  // passes cost simulated time.
  const IntegrityReport& si = scrub.run.run_report.integrity;
  const bool scrub_ok = si.scrub_passes >= 1 && si.scrub_seconds > 0.0 &&
                        si.corruptions_injected >= 1 &&
                        si.corruptions_detected == si.corruptions_injected &&
                        repaired_total(si) == si.corruptions_detected &&
                        scrub.run.residual < residual_bound;

  // ec-scrub: at least one repair decodes the cell from the stripe.
  const IntegrityReport& ei = ec_scrub.run.run_report.integrity;
  const bool ec_ok = ei.cells_repaired_ec >= 1 &&
                     ei.corruptions_detected == ei.corruptions_injected &&
                     repaired_total(ei) == ei.corruptions_detected &&
                     ec_scrub.run.residual < residual_bound;

  // spin-scrub: at least one corrupted memory-tier partition is rebuilt by
  // lineage recomputation.
  const IntegrityReport& pi = spin_scrub.run.run_report.integrity;
  const bool spin_ok = pi.cells_repaired_lineage >= 1 &&
                       repaired_total(pi) == pi.corruptions_detected &&
                       spin_scrub.run.residual < residual_bound;

  std::printf("\nclean counters all zero : %s\n", clean_zero ? "yes" : "NO");
  std::printf("clean deterministic     : %s\n",
              clean_deterministic ? "yes" : "NO");
  std::printf("verify-clean harmless   : %s\n",
              verify_clean_ok ? "yes" : "NO");
  std::printf("blind residual > %.0e  : %s (%.2e)\n", blind_bound,
              blind_ok ? "yes" : "NO", blind.run.residual);
  std::printf("repair to epsilon       : %s (%.2e)\n",
              repair_ok ? "yes" : "NO", repair.run.residual);
  std::printf("repair deterministic    : %s\n",
              repair_deterministic ? "yes" : "NO");
  std::printf("scrubber catches 100%%   : %s (%lld/%lld)\n",
              scrub_ok ? "yes" : "NO",
              static_cast<long long>(si.corruptions_detected),
              static_cast<long long>(si.corruptions_injected));
  std::printf("ec decode repair        : %s (%lld cell(s))\n",
              ec_ok ? "yes" : "NO",
              static_cast<long long>(ei.cells_repaired_ec));
  std::printf("lineage recompute repair: %s (%lld partition(s))\n",
              spin_ok ? "yes" : "NO",
              static_cast<long long>(pi.cells_repaired_lineage));

  JsonWriter json(17);
  begin_sweep_json(json, probe, setup, nodes, seed);
  json.begin_array("runs");
  for (const Point& p : points) {
    const IntegrityReport& i = p.run.run_report.integrity;
    json.begin_object()
        .field("config", p.spec.name)
        .field("completed", p.run.completed);
    if (p.run.completed) {
      json.field("hours", p.run.paper_hours())
          .field("residual", p.run.residual)
          .field("verify_checksums", i.verify_checksums)
          .field("scrub_interval_seconds", i.scrub_interval_seconds)
          .field("cells_checksummed", i.cells_checksummed)
          .field("cells_verified", i.cells_verified)
          .field("corruptions_injected", i.corruptions_injected)
          .field("corruptions_detected", i.corruptions_detected)
          .field("cells_repaired_copy", i.cells_repaired_copy)
          .field("cells_repaired_ec", i.cells_repaired_ec)
          .field("cells_repaired_lineage", i.cells_repaired_lineage)
          .field("scrub_passes", i.scrub_passes)
          .field("scrub_bytes_scanned", i.scrub_bytes_scanned)
          .field("scrub_seconds", i.scrub_seconds);
    } else {
      json.field("error", p.run.error.substr(0, 120));
    }
    json.end_object();
  }
  json.end_array()
      .begin_object("asserts")
      .field("clean_zero", clean_zero)
      .field("clean_deterministic", clean_deterministic)
      .field("verify_clean_ok", verify_clean_ok)
      .field("blind_ok", blind_ok)
      .field("repair_ok", repair_ok)
      .field("repair_deterministic", repair_deterministic)
      .field("scrub_ok", scrub_ok)
      .field("ec_ok", ec_ok)
      .field("spin_ok", spin_ok)
      .end_object()
      .field("blind_bound", blind_bound)
      .field("residual_bound", residual_bound)
      .end_object();
  write_json_file(out, json.str());
  std::printf("results written to %s\n", out.c_str());

  return clean_zero && clean_deterministic && verify_clean_ok && blind_ok &&
                 repair_ok && repair_deterministic && scrub_ok && ec_ok &&
                 spin_ok
             ? 0
             : 1;
}
