// The probe: every layer reports each simulated fact once, here, and the
// instruments (tracer, metrics registry, profiler, host telemetry,
// exemplar observatory, flight recorder, auditor) subscribe. The
// vocabulary is built from values the sites already compute:
//
//   interval  a resource occupancy: wait [earliest, start), held
//             [start, end). Each controller channel/port/plane step,
//             channel stall, DmaEngine transfer and RPC admission, told
//             by the owner of the reservation (a Timeline reports
//             nothing itself).
//   replay    replay begin, each POSIX request and its I/O-path
//             expansion (bytes and device-request counts), progress.
//   request   a device request opening (ready, admit, issue and the
//             gates its ready time waited on) and closing (its ledger).
//   media     the controller's byte accounting of a device request.
//   note      a breadcrumb for the flight recorder.
//
// Subscribers are installed per thread, one per Slot; a second install
// in a slot shadows the first until it leaves, so sessions nest like
// scopes. When nobody listens to a kind, its emitters cost one
// thread-local load and a branch: no virtual call, no event built.
// Subscribers never mutate simulation state.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <utility>

#include "common/shard_domain.hpp"
#include "common/units.hpp"

namespace nvmooc::probe {

// -- vocabulary -------------------------------------------------------------

enum class Resource : std::uint8_t {
  kLink = 0,          ///< A DmaEngine transfer; `label` names the link, and
                      ///< the wait includes its fixed protocol latencies.
  kRpc = 1,           ///< Parallel-FS RPC concurrency window (wait only).
  kChannelStall = 2,  ///< Injected channel stall (wait only).
  kChannel = 3,       ///< Channel bus: command or data cycles.
  kPort = 4,          ///< Package port: register <-> pads transfer.
  kCell = 5,          ///< Die plane: cell activation.
};

/// Where on the device a controller step ran.
struct Site {
  std::uint32_t channel = 0;
  std::uint32_t package = 0;
  std::uint32_t die = 0;
  std::uint32_t plane = 0;
  auto operator<=>(const Site&) const = default;
};

/// The name of the device resource a controller step of `resource` holds
/// at `site`, the one name the auditor's and the tracer's tracks use:
/// "ssd.ch<c>" for a channel (and its stalls), "ssd.ch<c>.pkg<p>.port"
/// for a package port, "ssd.ch<c>.pkg<p>.die<d>.pl<k>" for a plane.
inline std::string resource_name(Resource resource, const Site& site) {
  std::string name = "ssd.ch" + std::to_string(site.channel);
  if (resource == Resource::kPort) {
    name += ".pkg" + std::to_string(site.package) + ".port";
  } else if (resource == Resource::kCell) {
    name += ".pkg" + std::to_string(site.package) + ".die" + std::to_string(site.die) + ".pl" +
            std::to_string(site.plane);
  }
  return name;
}

struct Interval {
  Resource resource = Resource::kLink;
  Time earliest;
  /// The earliest grant the resource could make: `earliest` plus the
  /// link's fixed latencies for kLink, `earliest` itself otherwise.
  Time ready;
  Time start;
  Time end;
  const std::string* label = nullptr;  ///< kLink: the link's name (may be empty).
  Site site;                           ///< Controller steps.
  std::uint32_t attempt = 0;           ///< kCell: read-retry step (0 = first sense).
  bool erase = false;                  ///< kCell: a block erase.
};

/// Stages of the request-latency decomposition, in causal order
/// (obs/latency.hpp maps them onto engine quantities).
enum class LatencyStage : std::uint8_t {
  kQueueWait = 0,
  kCpu = 1,
  kDispatch = 2,
  kBus = 3,
  kMediaWait = 4,
  kMedia = 5,
  kEccRetry = 6,
  kCompletionTail = 7,
  kTotal = 8,
};
inline constexpr int kLatencyStageCount = 9;

/// One device request's lifecycle timestamps and stage durations. `id`
/// is the engine's 0-based issue-order ordinal, the id flight dumps,
/// exemplars and audit violations all use.
struct PhaseLedger {
  std::uint64_t id = 0;
  bool read = true;
  bool internal = false;
  std::uint64_t bytes = 0;
  std::uint32_t retries = 0;

  Time ready;
  Time admit;
  Time issue;
  Time media_begin;
  Time media_end;
  Time completion;

  std::array<Time, kLatencyStageCount> stage{};

  [[nodiscard]] double stage_us(LatencyStage s) const {
    return static_cast<double>(stage[static_cast<int>(s)]) /
           static_cast<double>(kMicrosecond);
  }
  [[nodiscard]] double total_us() const { return stage_us(LatencyStage::kTotal); }
  /// "read" | "write" | "read_internal" | "write_internal".
  [[nodiscard]] std::string klass() const {
    return std::string(read ? "read" : "write") + (internal ? "_internal" : "");
  }
};

/// One POSIX request and the I/O path's expansion of it, counted before
/// the engine drops zero-size device requests.
struct Posix {
  Bytes size;      ///< Application bytes.
  Bytes payload;   ///< Device bytes carrying them.
  Bytes internal;  ///< Journal/metadata device bytes.
  std::uint64_t device_requests = 0;    ///< Device requests in the expansion.
  std::uint64_t internal_requests = 0;  ///< Of those, journal/metadata ones.
  const char* layer = "fs";             ///< "fs" or "ufs": which I/O path expanded it.
};

/// A device request about to reach the device. `ready` is the latest of
/// the four gates.
struct RequestOpen {
  Time ready;
  Time admit;
  Time issue;
  /// The engine's fold watermark: no later grant is ready before it (the
  /// issue itself for a single-client replay).
  Time watermark;
  Time cpu_gate;      ///< Predecessor's submission-core release.
  Time barrier_gate;  ///< Completion of the last barrier request.
  Time app_gate;      ///< Application not_before.
  Time drain_gate;    ///< Everything issued so far done (binds barriers).
  bool barrier = false;
};

struct RequestClose {
  PhaseLedger ledger;
  const std::string* io_path = nullptr;  ///< FS/UFS model that issued it.
  const char* pal = "";                  ///< Parallelism level reached.
  Bytes in_flight;  ///< Window bytes outstanding at admission, this one included.
};

/// How a channel transfer relates to the device request that caused it.
enum class MediaKind : std::uint8_t {
  kRequest = 0,  ///< The request's own span (payload or internal, per its class).
  kRmw = 1,      ///< Read half of a read-modify-write edge page.
  kGc = 2,       ///< Garbage-collection relocation traffic.
  kRemap = 3,    ///< Bad-block retirement relocation/rewrite traffic.
};

/// The controller's closing summary of one device request.
struct MediaDone {
  std::uint64_t transactions = 0;
  Time media_time;  ///< Arrival to media_end.
  std::uint64_t retries = 0;
  std::uint64_t uncorrectable_units = 0;
};

/// `category` and `what` are string literals; `detail` is transient.
struct Note {
  Time t;
  const char* category = "";
  const char* what = "";
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  const char* detail = nullptr;
};

// -- subscribers ------------------------------------------------------------

enum class Kind : std::uint8_t { kInterval, kReplay, kRequest, kMedia, kNote };
inline constexpr int kKindCount = 5;
[[nodiscard]] constexpr unsigned bit(Kind kind) { return 1u << static_cast<unsigned>(kind); }

/// One install slot per instrument; dispatch runs in slot order.
enum class Slot : std::uint8_t { kAudit, kProfile, kTrace, kMetrics, kLatency, kFlight, kHost };
inline constexpr int kSlotCount = 7;

/// An instrument. Only the hooks of the kinds in `kinds` (a mask of
/// bit(Kind)) are ever called.
class Subscriber {
 public:
  explicit Subscriber(unsigned kinds) : kinds_(kinds) {}
  virtual ~Subscriber() = default;
  [[nodiscard]] unsigned kinds() const { return kinds_; }

  // kInterval
  virtual void on_interval(const Interval& /*interval*/) {}
  // kReplay
  virtual void on_replay_begin(std::uint64_t /*posix_requests*/) {}
  virtual void on_posix(const Posix& /*posix*/) {}
  virtual void on_progress(Time /*all_done*/) {}
  // kRequest
  virtual void on_request_open(const RequestOpen& /*request*/) {}
  virtual void on_request_close(const RequestClose& /*request*/) {}
  // kMedia; the first-attempt kRequest transfers must move `expected`.
  virtual void on_media_begin(Bytes /*expected*/, bool /*internal*/) {}
  virtual void on_media_transfer(Bytes /*bytes*/, MediaKind /*kind*/,
                                 std::uint32_t /*retries*/) {}
  virtual void on_media_end(const MediaDone& /*done*/) {}
  // kNote
  virtual void on_note(const Note& /*note*/) {}

 private:
  unsigned kinds_;
};

namespace detail {

// Plain arrays: the emitters' count test stays a single load even in an
// unoptimised (sanitizer) build.
struct Set {
  Subscriber* slot[kSlotCount] = {};
  /// Per kind, the installed subscribers that handle it, in slot order.
  Subscriber* to[kKindCount][kSlotCount] = {};
  std::uint8_t count[kKindCount] = {};
};

SIM_SHARD_SHARED("thread-local subscriber set; sessions install into it on their own thread and emitters only read their own thread's set")
inline thread_local constinit Set tls_set;

/// Calls `hook` on each subscriber of `kind`; a count test when none.
template <class Hook>
inline void each(Kind kind, const Hook& hook) {
  const Set& set = tls_set;
  const int k = static_cast<int>(kind);
  for (int i = 0; i < set.count[k]; ++i) hook(*set.to[k][i]);
}

/// Interval delivery, kept out of line: the hot emitters (every
/// controller step) then carry only the count test, and none
/// of their locals has its address taken.
[[gnu::noinline]] inline void deliver(const Interval& iv) {
  each(Kind::kInterval, [&](Subscriber& s) { s.on_interval(iv); });
}

inline bool listening(Kind kind) { return tls_set.count[static_cast<int>(kind)] != 0; }

}  // namespace detail

/// The calling thread's occupant of `slot`, or null.
[[nodiscard]] inline Subscriber* slot(Slot s) {
  return detail::tls_set.slot[static_cast<int>(s)];
}

/// Puts `subscriber` (null clears) in `slot` for the scope's lifetime,
/// then puts the previous occupant back.
class Scoped {
 public:
  Scoped(Slot s, Subscriber* subscriber) : slot_(s), previous_(install(s, subscriber)) {}
  ~Scoped() { install(slot_, previous_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  static Subscriber* install(Slot s, Subscriber* subscriber) {
    detail::Set& set = detail::tls_set;
    Subscriber* previous = std::exchange(set.slot[static_cast<int>(s)], subscriber);
    for (int k = 0; k < kKindCount; ++k) {
      std::uint8_t n = 0;
      for (Subscriber* sub : set.slot) {
        if (sub != nullptr && (sub->kinds() & bit(static_cast<Kind>(k))) != 0) {
          set.to[k][n++] = sub;
        }
      }
      set.count[k] = n;
    }
    return previous;
  }

  Slot slot_;
  Subscriber* previous_;
};

/// An instrument session: owns a `T` and installs it in `S` for its
/// lifetime. Constructor arguments go to `T`.
template <class T, Slot S>
class Session {
 public:
  template <class... Args>
  explicit Session(Args&&... args)
      : instrument_(std::forward<Args>(args)...), installed_(S, &instrument_) {}

 protected:
  T instrument_;

 private:
  Scoped installed_;
};

// -- emitters ---------------------------------------------------------------
// Nothing is built when nobody listens to the kind.

/// A link transfer ready at `earliest`, and past the link's fixed
/// latencies at `ready`, held the wire [start, end).
inline void link(const std::string& label, Time earliest, Time ready, Time start, Time end) {
  if (detail::listening(Kind::kInterval)) {
    detail::deliver({Resource::kLink, earliest, ready, start, end, &label, {}, 0, false});
  }
}

/// The RPC window admitted a request ready at `earliest` at `start`.
inline void rpc(Time earliest, Time start) {
  if (detail::listening(Kind::kInterval)) {
    detail::deliver({Resource::kRpc, earliest, earliest, start, start, nullptr, {}, 0, false});
  }
}

/// One controller step at `site`.
inline void step(Resource resource, const Site& site, Time earliest, Time start,
                 Time end, std::uint32_t attempt = 0, bool erase = false) {
  if (detail::listening(Kind::kInterval)) {
    detail::deliver({resource, earliest, earliest, start, end, nullptr, site, attempt, erase});
  }
}

inline void replay_begin(std::uint64_t posix_requests) {
  detail::each(Kind::kReplay, [&](Subscriber& s) { s.on_replay_begin(posix_requests); });
}

inline void posix(const Posix& posix) {
  detail::each(Kind::kReplay, [&](Subscriber& s) { s.on_posix(posix); });
}

inline void progress(Time all_done) {
  detail::each(Kind::kReplay, [&](Subscriber& s) { s.on_progress(all_done); });
}

inline void request_open(const RequestOpen& request) {
  detail::each(Kind::kRequest, [&](Subscriber& s) { s.on_request_open(request); });
}

inline void request_close(const RequestClose& request) {
  detail::each(Kind::kRequest, [&](Subscriber& s) { s.on_request_close(request); });
}

inline void media_begin(Bytes expected, bool internal) {
  detail::each(Kind::kMedia, [&](Subscriber& s) { s.on_media_begin(expected, internal); });
}

inline void media_transfer(Bytes bytes, MediaKind kind, std::uint32_t retries) {
  detail::each(Kind::kMedia, [&](Subscriber& s) { s.on_media_transfer(bytes, kind, retries); });
}

inline void media_end(const MediaDone& done) {
  detail::each(Kind::kMedia, [&](Subscriber& s) { s.on_media_end(done); });
}

/// A breadcrumb: a violation, an abort, a rare transition.
inline void note(Time t, const char* category, const char* what, std::uint64_t a = 0,
                 std::uint64_t b = 0, const char* detail_text = nullptr) {
  detail::each(Kind::kNote,
               [&](Subscriber& s) { s.on_note({t, category, what, a, b, detail_text}); });
}

}  // namespace nvmooc::probe
