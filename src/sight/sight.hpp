// ptb::sight — data-centric memory observability.
//
// The paper's argument runs through *where* communication happens: which
// data structures miss, which lines ping-pong between processors, how the
// working set tracks the tree's shape. The protocol models export aggregate
// counters; sight ties every access back to a logical object — a body index,
// a tree cell (via the shared CellResolver), a lock word, or a harness
// region — and derives three analyses from the observed per-line access
// interleaving:
//
//   (a) sharing-pattern classification per 64-byte line into the classic
//       taxonomy (private, read-shared, producer–consumer, migratory,
//       ping-pong), per phase and whole-run. Migratory is separated from
//       ping-pong by the fraction of ownership transfers where the new
//       writer read the line before writing (lock-protected read-modify-
//       write migration vs. blind write-write bouncing).
//   (b) false-sharing detection: lines where *distinct logical objects*
//       are written by *distinct processors* within an invalidation window
//       of virtual time. Object identity comes from per-region object
//       granules the harness opts into (bodies → sizeof(Body), cell pools →
//       sizeof(Node), reduction slots → sizeof(ReduceSlot)); regions
//       without a configured granule are never flagged.
//   (c) per-processor, per-phase reuse-distance histograms (exact Olken
//       stack distances over 64 B lines, log2-bucketed into the mergeable
//       Distribution machinery) and working-set sizes (distinct lines).
//
// Like RaceModel, SightModel is an opt-in MemModel decorator (--sight /
// PTB_SIGHT): every hook first updates observer state, then forwards to the
// wrapped model and returns its latency unchanged, so sighted runs are
// bit-identical in virtual time. When disabled the only residual cost is a
// null-pointer branch in the simulator. Unlike RaceModel it DOES observe
// the concurrent read_shared fast path: attaching any observer forces the
// parallel backend to run unordered sections inline (sim_rt.cpp), so host
// execution is serialized whenever sight is on and plain state updates are
// safe everywhere.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/model.hpp"
#include "rt/phase.hpp"
#include "support/cell_resolver.hpp"
#include "support/stats.hpp"
#include "support/zero_pages.hpp"

namespace ptb::trace {
class Tracer;
class MetricsRegistry;
}  // namespace ptb::trace

namespace ptb::sight {

/// Observation granularity: one coherence line. Fixed at 64 B regardless of
/// the platform's block size so classifications are comparable across the
/// platform matrix (and match the cache-line reality of modern hosts).
inline constexpr std::size_t kLineBytes = 64;

enum class LineClass : std::uint8_t {
  kUntouched = 0,
  kPrivate,
  kReadShared,
  kProducerConsumer,
  kMigratory,
  kPingPong,
};
inline constexpr int kNumClasses = 6;
const char* line_class_name(LineClass c);

/// Access interleaving summary for one line over one phase (or the whole
/// run): who touched it, how, and how ownership moved.
struct LineUse {
  std::uint64_t readers = 0;  // bitmask of reading processors
  std::uint64_t writers = 0;  // bitmask of writing processors
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t writer_changes = 0;     // writes by a proc != previous writer
  std::uint64_t migratory_changes = 0;  // ...where the new writer read first
};

/// Classifies one interleaving summary. Pure function of the counters; used
/// for both the whole-run class and the per-phase rows.
LineClass classify(const LineUse& u);

// --- report -----------------------------------------------------------------

/// One (scope, phase, class) cell of the sharing table. `scope` is "cells"
/// for lines inside tree cells (then `depth` is the cell depth) or the
/// owning region's name with per-processor suffixes collapsed
/// ("local.cells.p3" → "local.cells.p*"). `phase` is a Phase index, or -1
/// for the whole-run classification.
struct ClassCell {
  std::string scope;
  int depth = -1;
  int phase = -1;
  LineClass cls = LineClass::kUntouched;
  std::uint64_t lines = 0;
};

/// One falsely-shared line: distinct objects written by distinct processors
/// within the invalidation window.
struct Finding {
  std::string region;       // owning region (raw name)
  std::uint64_t line = 0;   // line index within the region
  std::string cell;         // "root"/"d<d>.o<o>" when the line is a tree cell
  std::vector<std::uint32_t> objects;  // object indices within the region
  std::vector<int> procs;
  std::uint64_t hits = 0;  // window-qualified cross-object write pairs
  std::array<std::uint64_t, kNumPhases> phase_hits{};
};

struct WorkingSetRow {
  int proc = 0;
  int phase = 0;
  std::uint64_t distinct_lines = 0;  // touched in this phase
  std::uint64_t cold = 0;            // first-ever accesses (no reuse distance)
  Distribution reuse;                // stack distances, log2-bucketed
};

struct SightReport {
  bool enabled = false;
  // Provenance (filled by the harness).
  std::string platform;
  std::string algorithm;
  int nbodies = 0;
  int nprocs = 0;
  std::uint64_t window_ns = 0;
  std::uint64_t lines_observed = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::array<std::uint64_t, kNumClasses> total_classes{};  // whole-run, all lines
  std::vector<ClassCell> classes;  // long form, nonzero cells only
  std::vector<Finding> false_sharing;
  std::uint64_t false_sharing_hits = 0;
  std::vector<WorkingSetRow> working_set;  // rows with accesses only
};

/// Serializes the report as JSON (consumed by tools/sight_report.py).
void write_sight_json(const SightReport& r, std::FILE* f);
std::string sight_json(const SightReport& r);

/// Publishes sight.* metrics (class line counts, false-sharing totals,
/// per-proc/phase working sets and reuse distributions) into the registry.
void ingest_sight_metrics(trace::MetricsRegistry& m, const SightReport& r);

// --- the MemModel decorator -------------------------------------------------

/// Wraps the platform's protocol model (outside RaceModel when both are on):
/// every hook updates the observer, forwards to the wrapped model, and
/// returns its latency unchanged. Statistics accessors forward too.
class SightModel final : public MemModel {
 public:
  explicit SightModel(std::unique_ptr<MemModel> inner);

  void register_region(const void* base, std::size_t bytes, HomePolicy policy,
                       int fixed_home, std::string name) override;
  void reset() override;

  std::uint64_t on_read(int proc, const void* p, std::size_t n, std::uint64_t now) override;
  std::uint64_t on_write(int proc, const void* p, std::size_t n,
                         std::uint64_t now) override;
  std::uint64_t on_rmw(int proc, const void* p, std::uint64_t now) override;
  std::uint64_t on_acquire(int proc, const void* lock, std::uint64_t now) override;
  std::uint64_t on_release(int proc, const void* lock, std::uint64_t now) override;
  std::uint64_t on_barrier_arrive(int proc, std::uint64_t now) override;
  std::uint64_t on_barrier_depart(int proc, std::uint64_t now) override;
  std::uint64_t on_atomic(int proc, const void* sync, bool is_write, const void* p,
                          std::size_t n, std::uint64_t now) override;
  std::uint64_t on_read_shared(int proc, const void* p, std::size_t n) override;
  std::uint64_t on_read_shared_span(int proc, const void* p, std::size_t n,
                                    std::size_t stride, std::size_t count) override;
  void on_phase(int proc, Phase ph) override;
  void set_serialized(bool s) override { inner_->set_serialized(s); }

  const MemProcStats& proc_stats(int p) const override { return inner_->proc_stats(p); }
  MemProcStats total_stats() const override { return inner_->total_stats(); }
  void reset_stats() override { inner_->reset_stats(); }

  MemModel& inner() { return *inner_; }

  /// Registers a region in the observer's table ONLY — not in the wrapped
  /// protocol model, so observing it cannot perturb virtual time. Used for
  /// memory the protocol never charges but sight attributes (the lock
  /// table: lock words are scheduler objects, yet their lines classify).
  void add_observed_region(const void* base, std::size_t bytes, std::string name);

  /// Opts region(s) into false-sharing detection: every region whose name
  /// starts with `prefix` is split into `bytes`-sized logical objects
  /// (body structs, tree nodes, reduction slots). Applies to regions
  /// registered before or after the call. bytes == 0 disables.
  void set_object_granule(const std::string& prefix, std::size_t bytes);

  /// Cross-object writes by distinct processors closer than this (virtual
  /// ns) count as false sharing. Default: 8× the platform's worst miss
  /// latency; PTB_SIGHT_WINDOW_NS overrides with a whole decimal number
  /// (construction aborts on anything else).
  void set_window_ns(std::uint64_t ns) { window_ns_ = ns; }
  std::uint64_t window_ns() const { return window_ns_; }

  /// Optional: emit a `sight` category instant at each line-class
  /// transition (Perfetto shows when a line goes migratory).
  void set_tracer(ptb::trace::Tracer* t) { tracer_ = t; }

  /// Builds the report. `cells` may be empty (all lines attribute to their
  /// region); provenance fields are left for the caller.
  SightReport build_report(const CellResolver& cells) const;

 private:
  struct Line {
    LineUse total;
    std::array<LineUse, kNumPhases> phase;
    std::int16_t last_writer = -1;
    std::uint64_t readers_since_write = 0;  // mask; reset on every write
    LineClass cls = LineClass::kUntouched;
    // False-sharing window state (writes only, objects valid only when the
    // region has an object granule).
    std::int16_t fs_writer = -1;
    std::uint32_t fs_object = 0;
    std::uint64_t fs_when_ns = 0;
  };

  struct FindingAcc {
    std::uint64_t hits = 0;
    std::uint64_t procs = 0;    // bitmask
    std::uint64_t objects = 0;  // bitmask of (object index % 64)
    std::vector<std::uint32_t> object_ids;  // exact ids, deduped
    std::array<std::uint64_t, kNumPhases> phase_hits{};
  };

  /// Exact Olken stack-distance tracker for one processor. Every line the
  /// processor touched holds one live marker in an access-recency slot; the
  /// distance of a reuse is the number of markers in later slots. Markers
  /// live in a bitmap of 64-slot words with a Fenwick tree over the per-word
  /// counts, and line state sits in a vector indexed by the observer's dense
  /// line id, so an access costs a few array operations plus O(log(slots/64)).
  /// When the slot space fills, compaction renumbers the live markers in
  /// slot order and rebuilds the tree in linear time.
  struct ReuseTracker {
    struct LineState {
      std::uint32_t slot = 0;
      std::uint8_t phase_mask = 0;  // phases in which this proc touched it; 0 = never
    };
    static constexpr std::uint32_t kNoLine = ~std::uint32_t{0};
    std::vector<LineState> state;          // by line id
    std::vector<std::uint32_t> slot_line;  // by slot; valid where the live bit is set
    std::vector<std::uint64_t> live;       // marker bitmap, cap / 64 words
    std::vector<std::uint32_t> fen;        // 1-based Fenwick over per-word counts
    std::uint32_t cap = 0;                 // slots, a multiple of 64
    std::uint32_t next = 0;                // next free slot
    std::uint32_t occupied = 0;            // live markers == distinct lines touched
    std::uint32_t last = kNoLine;          // most recently accessed line id

    void fen_add(std::uint32_t word, std::int32_t d);
    std::uint32_t fen_prefix(std::uint32_t words) const;
    void compact();
    /// Distance to the previous access of line `id` by this proc, or
    /// UINT64_MAX when cold. Updates the tracker; `first_in_phase` reports
    /// whether this is the proc's first touch of the line in `phase`.
    std::uint64_t access(std::uint32_t id, int phase, bool& first_in_phase);
  };

  void observe(int proc, const void* p, std::size_t n, bool is_write, std::uint64_t now,
               bool has_now);
  void touch_line(int proc, std::size_t block, bool is_write, std::uint32_t object,
                  bool has_object, std::uint64_t now, bool has_now);
  /// Dense id of the line observing `block`, allocating it on first touch.
  std::uint32_t line_id(std::size_t block);
  void refresh_granules();
  void note_class(int proc, LineClass cls, std::uint64_t now);

  std::unique_ptr<MemModel> inner_;
  ptb::trace::Tracer* tracer_ = nullptr;
  std::uint64_t window_ns_ = 0;

  // Per-line observer state, allocated lazily per touched line.
  ZeroPages<std::uint32_t> slot_of_block_;  // line id + 1; 0 = untouched
  std::vector<Line> lines_;
  std::vector<std::uint64_t> line_block_;  // lines_[i] observes this block

  std::vector<std::pair<std::string, std::size_t>> granule_config_;
  std::vector<std::uint32_t> region_granule_;  // per region index; 0 = off

  std::unordered_map<std::uint64_t, FindingAcc> findings_;  // by block

  std::vector<Phase> phase_;  // per proc
  std::vector<ReuseTracker> reuse_;
  // Per (proc, phase): distinct lines, cold accesses, reuse distances.
  std::vector<std::array<std::uint64_t, kNumPhases>> ws_lines_;
  std::vector<std::array<std::uint64_t, kNumPhases>> ws_cold_;
  std::vector<std::array<Distribution, kNumPhases>> reuse_dist_;

  std::uint64_t now_hint_ = 0;  // latest ordered virtual time seen
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

/// True when PTB_SIGHT is set to a non-empty, non-"0" value (cached).
bool default_sight_enabled();

/// Report path: the --sight flag value if non-empty, else $PTB_SIGHT, else
/// "" (disabled).
std::string sight_path_from(const std::string& flag_value);

}  // namespace ptb::sight
