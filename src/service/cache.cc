#include "service/cache.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "obs/obs.hh"
#include "service/persist.hh"
#include "synth/instantiate.hh"

namespace reqisc::service
{

namespace
{

/**
 * Process-wide cache metrics, registered lazily on first cache use.
 * These run beside the per-instance CacheCounters (which feed the
 * per-job --json report); the obs view aggregates over every cache
 * instance in the process, which is what a /metrics scrape wants.
 */
struct CacheMetrics
{
    obs::Counter *synthHits;
    obs::Counter *synthMisses;
    obs::Counter *synthEvictions;
    obs::Histogram *synthVerifySeconds;
    obs::Counter *pulseHits;
    obs::Counter *pulseMisses;
    obs::Counter *pulseEvictions;
};

CacheMetrics &cacheMetrics()
{
    static CacheMetrics m = [] {
        auto &r = obs::Registry::global();
        return CacheMetrics{
            r.counter("reqisc_synth_cache_hits_total",
                      "SynthCache lookups served (verified)"),
            r.counter("reqisc_synth_cache_misses_total",
                      "SynthCache lookups not served (absent or "
                      "failed re-verification)"),
            r.counter("reqisc_synth_cache_evictions_total",
                      "SynthCache LRU evictions"),
            r.histogram("reqisc_synth_cache_verify_seconds",
                        "Rebuild-and-compare re-verification time "
                        "of a SynthCache hit candidate"),
            r.counter("reqisc_pulse_cache_hits_total",
                      "PulseCache lookups served within tolerance"),
            r.counter("reqisc_pulse_cache_misses_total",
                      "PulseCache lookups not served"),
            r.counter("reqisc_pulse_cache_evictions_total",
                      "PulseCache LRU evictions"),
        };
    }();
    return m;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// The fingerprint quantization scale the synth keys depend on (part
// of the synth file header; the magic tags and format versions live
// with the payloads below).
constexpr double kFingerprintScale = 1e12;

// Parse-time sanity caps (see persist.hh: corrupt counts must fail
// the load, not drive huge allocations).
constexpr std::uint64_t kMaxEntries = 1ull << 22;
constexpr std::uint64_t kMaxKeyWords = 4096;
constexpr std::uint64_t kMaxGates = 1ull << 16;

std::uint64_t
fnv1a(const std::vector<std::int64_t> &words)
{
    std::uint64_t h = kFnvOffset;
    for (std::int64_t w : words) {
        auto u = static_cast<std::uint64_t>(w);
        for (int i = 0; i < 8; ++i) {
            h ^= (u >> (8 * i)) & 0xffu;
            h *= kFnvPrime;
        }
    }
    return h;
}

/**
 * Quantized fingerprint of a unitary after canonicalizing its global
 * phase (divide by the phase of the first maximum-magnitude entry, a
 * deterministic choice). Identical inputs — and inputs differing only
 * by global phase — map to the same word sequence; anything else is
 * a different key, so a key collision never silently changes results
 * (hits are re-verified against the requested target anyway).
 */
std::vector<std::int64_t>
fingerprint(const qmath::Matrix &u)
{
    const int n = u.rows();
    // First strictly-maximal-magnitude entry, scanned row-major.
    double best = -1.0;
    qmath::Complex phase{1.0, 0.0};
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const double m = std::abs(u(i, j));
            if (m > best + 1e-12) {
                best = m;
                phase = u(i, j) / m;
            }
        }
    }
    std::vector<std::int64_t> words;
    words.reserve(2 * n * n);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const qmath::Complex v = u(i, j) / phase;
            words.push_back(
                std::llround(v.real() * kFingerprintScale));
            words.push_back(
                std::llround(v.imag() * kFingerprintScale));
        }
    }
    return words;
}

/** Append the search options that determine the outcome. */
void
appendOptions(std::vector<std::int64_t> &words,
              const synth::SynthesisOptions &opts)
{
    words.push_back(std::llround(opts.tol * 1e15));
    words.push_back(opts.maxBlocks);
    words.push_back(opts.restarts);
    words.push_back(static_cast<std::int64_t>(opts.seed));
    words.push_back(opts.descending ? 1 : 0);
}

/** Rebuild the 8x8 unitary of a local-id synthesis result. */
qmath::Matrix
rebuild(const synth::SynthesisResult &r)
{
    qmath::Matrix u = qmath::Matrix::identity(8);
    for (const circuit::Gate &g : r.gates)
        u = synth::liftGate(g.matrix(), g.qubits, 3) * u;
    return u;
}

/** Exact (bit-pattern) double equality, the persistence contract. */
bool
sameBits(double a, double b)
{
    std::uint64_t ua, ub;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return ua == ub;
}

void
writeCoord(persist::Writer &w, const weyl::WeylCoord &c)
{
    w.f64(c.x);
    w.f64(c.y);
    w.f64(c.z);
}

bool
readCoord(persist::Reader &r, weyl::WeylCoord &c)
{
    return r.f64(c.x) && r.f64(c.y) && r.f64(c.z);
}

/** Hash of the `tol`-wide grid cell a class coordinate falls in. */
std::uint64_t
cellOf(const weyl::WeylCoord &c, double tol)
{
    const std::vector<std::int64_t> cell = {
        static_cast<std::int64_t>(std::floor(c.x / tol)),
        static_cast<std::int64_t>(std::floor(c.y / tol)),
        static_cast<std::int64_t>(std::floor(c.z / tol)),
    };
    return fnv1a(cell);
}

} // namespace

namespace detail
{

// Each payload carries its file identity (magic tag; format version:
// bump on any layout or key-scheme change, old files are then
// rejected wholesale), its entry codec, its save order (identical
// contents always save to identical files) and its --stats row.

/** Fingerprint + search-options key and the search outcome. */
struct SynthPayload
{
    static constexpr const char *kName = "synth";
    static constexpr std::uint32_t kMagic = 0x43535152u;  // "RQSC"
    static constexpr std::uint32_t kVersion = 1;
    static obs::Counter *evictions() { return cacheMetrics().synthEvictions; }

    std::vector<std::int64_t> key;
    synth::SynthesisResult result;  //!< local qubit ids 0..2

    /** Failed searches are kept too: they replay deterministically. */
    bool servable() const { return true; }
    bool operator<(const SynthPayload &o) const { return key < o.key; }
    void describe(ClassStats &row) const
    {
        row.blockCount = result.blockCount;
    }

    void write(persist::Writer &w) const
    {
        w.u64(key.size());
        for (std::int64_t word : key)
            w.i64(word);
        w.u32(result.success ? 1u : 0u);
        w.f64(result.infidelity);
        w.u32(static_cast<std::uint32_t>(result.blockCount));
        w.u64(result.gates.size());
        for (const circuit::Gate &g : result.gates)
            w.gate(g);
    }

    bool read(persist::Reader &r)
    {
        std::uint64_t nwords, ngates;
        std::uint32_t success, block_count;
        if (!r.u64(nwords) || nwords > kMaxKeyWords)
            return false;
        key.resize(nwords);
        for (std::int64_t &word : key)
            if (!r.i64(word))
                return false;
        if (!r.u32(success) || success > 1)
            return false;
        result.success = success == 1;
        if (!r.f64(result.infidelity) || !r.u32(block_count))
            return false;
        result.blockCount = static_cast<int>(block_count);
        if (!r.u64(ngates) || ngates > kMaxGates)
            return false;
        result.gates.resize(ngates);
        for (circuit::Gate &g : result.gates)
            if (!r.gate(g))
                return false;
        return true;
    }
};

/**
 * A class coordinate and its pulse solution, stored compactly: the
 * solution's scalar fields inline, and its four one-qubit correction
 * matrices (inline-buffered, ~1 KB each) only when one of them is
 * filled. GateScheme::solve fills them; solveCoord, and so every
 * planCalibration store, never does. unpack() rebuilds exactly the
 * PulseSolution that pack() was given.
 */
struct PulsePayload
{
    static constexpr const char *kName = "pulse";
    static constexpr std::uint32_t kMagic = 0x43505152u;  // "RQPC"
    static constexpr std::uint32_t kVersion = 1;
    static obs::Counter *evictions() { return cacheMetrics().pulseEvictions; }

    using Corrections = std::array<qmath::Matrix, 4>;  //!< a1 a2 b1 b2

    weyl::WeylCoord coord;
    bool converged = false;
    uarch::SubScheme scheme = uarch::SubScheme::ND;
    double tau = 0.0;
    double omega1 = 0.0;
    double omega2 = 0.0;
    double delta = 0.0;
    weyl::WeylCoord target;
    weyl::WeylCoord effective;
    double coordError = 1.0;
    bool hasCorrections = false;
    std::shared_ptr<const Corrections> corrections;  //!< null: all empty

    /** Never serve unverified work; re-solve instead. */
    bool servable() const { return converged; }
    bool operator<(const PulsePayload &o) const
    {
        return std::tie(coord.x, coord.y, coord.z) <
               std::tie(o.coord.x, o.coord.y, o.coord.z);
    }
    void describe(ClassStats &row) const { row.coord = coord; }

    void pack(const uarch::PulseSolution &s)
    {
        converged = s.converged;
        scheme = s.scheme;
        tau = s.tau;
        omega1 = s.omega1;
        omega2 = s.omega2;
        delta = s.delta;
        target = s.target;
        effective = s.effective;
        coordError = s.coordError;
        hasCorrections = s.hasCorrections;
        if (filled(s.a1) || filled(s.a2) || filled(s.b1) || filled(s.b2))
            corrections = std::make_shared<const Corrections>(
                Corrections{s.a1, s.a2, s.b1, s.b2});
    }

    void unpack(uarch::PulseSolution &s) const
    {
        s.converged = converged;
        s.scheme = scheme;
        s.tau = tau;
        s.omega1 = omega1;
        s.omega2 = omega2;
        s.delta = delta;
        s.target = target;
        s.effective = effective;
        s.coordError = coordError;
        s.hasCorrections = hasCorrections;
        const Corrections &m = matrices();
        s.a1 = m[0];
        s.a2 = m[1];
        s.b1 = m[2];
        s.b2 = m[3];
    }

    void write(persist::Writer &w) const
    {
        writeCoord(w, coord);
        w.u32(converged ? 1u : 0u);
        w.u32(static_cast<std::uint32_t>(scheme));
        w.f64(tau);
        w.f64(omega1);
        w.f64(omega2);
        w.f64(delta);
        writeCoord(w, target);
        writeCoord(w, effective);
        w.f64(coordError);
        w.u32(hasCorrections ? 1u : 0u);
        for (const qmath::Matrix &m : matrices())
            w.matrix(m);
    }

    bool read(persist::Reader &r)
    {
        std::uint32_t conv = 0, sch = 0, has_corr = 0;
        if (!readCoord(r, coord) || !r.u32(conv) || conv > 1)
            return false;
        converged = conv == 1;
        if (!r.u32(sch) ||
            sch > static_cast<std::uint32_t>(uarch::SubScheme::EAMinus))
            return false;
        scheme = static_cast<uarch::SubScheme>(sch);
        if (!r.f64(tau) || !r.f64(omega1) || !r.f64(omega2) ||
            !r.f64(delta) || !readCoord(r, target) ||
            !readCoord(r, effective) || !r.f64(coordError) ||
            !r.u32(has_corr) || has_corr > 1)
            return false;
        hasCorrections = has_corr == 1;
        Corrections m;
        for (qmath::Matrix &x : m)
            if (!r.matrix(x))
                return false;
        if (std::any_of(m.begin(), m.end(), filled))
            corrections = std::make_shared<const Corrections>(std::move(m));
        return true;
    }

  private:
    /** Anything but a default (0 x 0) matrix is kept. */
    static bool filled(const qmath::Matrix &m)
    {
        return m.rows() != 0 || m.cols() != 0;
    }

    const Corrections &matrices() const
    {
        static const Corrections kNone;
        return corrections ? *corrections : kNone;
    }
};

/**
 * The skeleton both caches share: entries bucketed by `hash` across
 * independently locked shards, each with its own counters and
 * least-recently-used eviction; first-writer-wins inserts under
 * `same`; and the one on-disk frame (magic, version, cache header,
 * entry count, entries, checksum).
 *
 * Each shard threads its entries on a recency list, least recently
 * used first: an insert or a served lookup moves the entry to the
 * back, and eviction takes the front. That is the entry a scan for
 * the oldest use would pick, found in O(1) instead of O(size).
 */
template <class Payload>
class LruTable
{
  public:
    struct Entry;
    using Node = std::pair<const std::uint64_t, Entry>;  //!< of entries
    using Recency = std::list<Node *>;

    struct Entry : Payload
    {
        double solveSeconds = 0.0;
        std::int64_t uses = 0;
        typename Recency::iterator pos{};  //!< this entry in recency
    };

    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_multimap<std::uint64_t, Entry> entries;
        Recency recency;  //!< every entry, least recently used first
        CacheCounters stats;
    };

    using Hash = std::function<std::uint64_t(const Payload &)>;
    using Same = std::function<bool(const Payload &, const Payload &)>;

    /** `capacity` bounds the sum over shards. */
    LruTable(std::size_t capacity, std::size_t nshards, Hash hash,
             Same same)
        : hash_(std::move(hash)), same_(std::move(same)),
          nshards_(nshards), shardCapacity_(capacity / nshards),
          shards_(std::make_unique<Shard[]>(nshards))
    {
    }

    std::size_t shardCount() const { return nshards_; }

    Shard &shardOf(std::uint64_t h) const
    {
        return shards_[h % nshards_];
    }

    /** The entry of bucket `h` satisfying `match`; s.mu held. */
    template <class Match>
    static Entry *find(Shard &s, std::uint64_t h, Match match)
    {
        auto [it, last] = s.entries.equal_range(h);
        for (; it != last; ++it)
            if (match(it->second))
                return &it->second;
        return nullptr;
    }

    /** Record a served lookup; s.mu held. */
    static void touch(Shard &s, Entry &e)
    {
        ++e.uses;
        s.recency.splice(s.recency.end(), s.recency, e.pos);
    }

    /**
     * Account `solve_seconds`, then keep `e` if it is servable and no
     * entry already there is the same (first writer wins: a racing
     * job's store, or a live entry over a persisted one), evicting
     * the least recently used entries down to the shard's capacity.
     */
    void add(Entry e, double solve_seconds)
    {
        const std::uint64_t h = hash_(e);
        Shard &s = shardOf(h);
        std::lock_guard<std::mutex> lk(s.mu);
        s.stats.solveSeconds += solve_seconds;
        if (!e.servable() ||
            find(s, h, [&](const Entry &x) { return same_(x, e); }))
            return;
        const auto it = s.entries.emplace(h, std::move(e));
        it->second.pos = s.recency.insert(s.recency.end(), &*it);
        while (s.entries.size() > shardCapacity_) {
            const Node *victim = s.recency.front();
            s.recency.pop_front();
            auto at = s.entries.equal_range(victim->first).first;
            while (&*at != victim)
                ++at;
            s.entries.erase(at);
            ++s.stats.evictions;
            Payload::evictions()->inc();
        }
    }

    CacheCounters stats() const
    {
        CacheCounters total;
        for (std::size_t i = 0; i < nshards_; ++i) {
            std::lock_guard<std::mutex> lk(shards_[i].mu);
            total.hits += shards_[i].stats.hits;
            total.misses += shards_[i].stats.misses;
            total.evictions += shards_[i].stats.evictions;
            total.solveSeconds += shards_[i].stats.solveSeconds;
        }
        return total;
    }

    std::size_t size() const
    {
        std::size_t n = 0;
        forEach([&](const Entry &) { ++n; });
        return n;
    }

    std::vector<ClassStats> perClass() const
    {
        std::vector<ClassStats> out;
        forEach([&](const Entry &e) {
            ClassStats row;
            e.describe(row);
            row.uses = e.uses;
            row.solveSeconds = e.solveSeconds;
            out.push_back(row);
        });
        return out;
    }

    /** Write the file; `header(w)` appends the cache's own fields. */
    template <class Header>
    bool save(const std::string &path, Header header) const
    {
        obs::Span span(std::string("persist:") + Payload::kName +
                       "-save");
        std::vector<Entry> snapshot;
        forEach([&](const Entry &e) { snapshot.push_back(e); });
        std::sort(snapshot.begin(), snapshot.end());

        persist::Writer w;
        w.u32(Payload::kMagic);
        w.u32(Payload::kVersion);
        header(w);
        w.u64(snapshot.size());
        for (const Entry &e : snapshot) {
            e.write(w);
            w.f64(e.solveSeconds);
            w.i64(e.uses);
        }
        const bool ok = w.commit(path);
        obs::log(ok ? obs::LogLevel::Info : obs::LogLevel::Warn,
                 "persist", name() + (ok ? " saved" : " save failed"),
                 {{"path", path},
                  {"entries", std::to_string(snapshot.size())}});
        return ok;
    }

    /**
     * Merge a file written by save(); `header(r)` checks the cache's
     * own fields. All-or-nothing: every entry is parsed before any
     * is added, so a rejected file leaves the table untouched.
     */
    template <class Header>
    bool load(const std::string &path, Header header)
    {
        obs::Span span(std::string("persist:") + Payload::kName +
                       "-load");
        const auto coldStart = [&](obs::LogLevel level,
                                   const char *why) {
            obs::log(level, "persist", name() + why + "; cold start",
                     {{"path", path}});
            return false;
        };
        std::string data;
        if (!persist::Reader::slurp(path, data))
            return coldStart(obs::LogLevel::Debug, " file absent");
        persist::Reader r(std::move(data));
        if (!r.verifyChecksum())
            return coldStart(obs::LogLevel::Warn,
                             " rejected: bad checksum");
        std::uint32_t magic, version;
        if (!r.u32(magic) || magic != Payload::kMagic ||
            !r.u32(version) || version != Payload::kVersion)
            return coldStart(obs::LogLevel::Warn,
                             " rejected: format mismatch");
        std::uint64_t count;
        if (!header(r) || !r.u64(count) || count > kMaxEntries)
            return false;
        std::vector<Entry> parsed;
        parsed.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            Entry e;
            if (!e.read(r) || !r.f64(e.solveSeconds) ||
                !r.i64(e.uses))
                return false;
            parsed.push_back(std::move(e));
        }
        if (r.remaining() != 0)
            return false;

        for (Entry &e : parsed)
            add(std::move(e), 0.0);
        obs::log(obs::LogLevel::Info, "persist", name() + " loaded",
                 {{"path", path},
                  {"entries", std::to_string(parsed.size())}});
        return true;
    }

  private:
    static std::string name()
    {
        return std::string(Payload::kName) + " cache";
    }

    /** f(entry) for every entry, one shard lock at a time. */
    template <class F>
    void forEach(F f) const
    {
        for (std::size_t i = 0; i < nshards_; ++i) {
            std::lock_guard<std::mutex> lk(shards_[i].mu);
            for (const auto &[h, e] : shards_[i].entries) {
                (void)h;
                f(e);
            }
        }
    }

    Hash hash_;
    Same same_;
    std::size_t nshards_;
    std::size_t shardCapacity_;
    std::unique_ptr<Shard[]> shards_;
};

} // namespace detail

using SynthTable = detail::LruTable<detail::SynthPayload>;
using PulseTable = detail::LruTable<detail::PulsePayload>;

// ---- SynthCache --------------------------------------------------------

SynthCache::SynthCache(std::size_t capacity)
{
    capacity = std::max<std::size_t>(capacity, 1);
    table_ = std::make_unique<SynthTable>(
        capacity, capacity >= kStripeThreshold ? 16 : 1,
        [](const detail::SynthPayload &p) { return fnv1a(p.key); },
        [](const detail::SynthPayload &a,
           const detail::SynthPayload &b) { return a.key == b.key; });
}

SynthCache::~SynthCache() = default;

bool
SynthCache::lookup(const qmath::Matrix &target,
                   const synth::SynthesisOptions &opts,
                   synth::SynthesisResult &out)
{
    std::vector<std::int64_t> key = fingerprint(target);
    appendOptions(key, opts);
    const std::uint64_t h = fnv1a(key);
    SynthTable::Shard &shard = table_->shardOf(h);
    const auto hasKey = [&](const SynthTable::Entry &e) {
        return e.key == key;
    };

    // Copy the candidate out under the lock, verify outside it: the
    // rebuild-and-compare is the expensive part of a hit, and doing
    // it in the critical section would serialize warm-cache workers.
    synth::SynthesisResult candidate;
    {
        std::lock_guard<std::mutex> lk(shard.mu);
        const SynthTable::Entry *e = SynthTable::find(shard, h, hasKey);
        if (!e) {
            ++shard.stats.misses;
            cacheMetrics().synthMisses->inc();
            return false;
        }
        candidate = e->result;
    }
    // Re-verify successful entries against the requested target; a
    // failed verification is treated as a miss (the caller
    // recomputes), never as a wrong answer. Failure entries carry no
    // gates to verify — they are trusted on the exact key, which
    // reproduces the deterministic search outcome.
    bool verified = true;
    if (candidate.success) {
        const auto v0 = std::chrono::steady_clock::now();
        verified =
            qmath::traceInfidelity(rebuild(candidate), target) <=
            opts.tol;
        cacheMetrics().synthVerifySeconds->observe(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - v0)
                .count());
    }
    std::lock_guard<std::mutex> lk(shard.mu);
    if (!verified) {
        ++shard.stats.misses;
        cacheMetrics().synthMisses->inc();
        return false;
    }
    ++shard.stats.hits;
    cacheMetrics().synthHits->inc();
    // The entry may have been evicted since.
    if (SynthTable::Entry *e = SynthTable::find(shard, h, hasKey))
        SynthTable::touch(shard, *e);
    out = std::move(candidate);
    return true;
}

void
SynthCache::store(const qmath::Matrix &target,
                  const synth::SynthesisOptions &opts,
                  const synth::SynthesisResult &result,
                  double solve_seconds)
{
    SynthTable::Entry e;
    e.key = fingerprint(target);
    appendOptions(e.key, opts);
    e.result = result;
    e.solveSeconds = solve_seconds;
    e.uses = 1;
    table_->add(std::move(e), solve_seconds);
}

CacheCounters
SynthCache::stats() const
{
    return table_->stats();
}

std::size_t
SynthCache::size() const
{
    return table_->size();
}

int
SynthCache::shardCount() const
{
    return static_cast<int>(table_->shardCount());
}

std::vector<ClassStats>
SynthCache::perClass() const
{
    return table_->perClass();
}

bool
SynthCache::save(const std::string &path) const
{
    return table_->save(path, [](persist::Writer &w) {
        w.f64(kFingerprintScale);
    });
}

bool
SynthCache::load(const std::string &path)
{
    return table_->load(path, [](persist::Reader &r) {
        double scale;
        return r.f64(scale) && sameBits(scale, kFingerprintScale);
    });
}

// ---- PulseCache --------------------------------------------------------

PulseCache::PulseCache(const uarch::Coupling &cpl, double tol,
                       std::size_t capacity)
    : cpl_(cpl), tol_(std::max(tol, 1e-12)),
      table_(std::make_unique<PulseTable>(
          capacity, 1,
          [tol = tol_](const detail::PulsePayload &p) {
              return cellOf(p.coord, tol);
          },
          [tol = tol_](const detail::PulsePayload &a,
                       const detail::PulsePayload &b) {
              return a.coord.distance(b.coord) <= tol;
          }))
{
}

PulseCache::~PulseCache() = default;

bool
PulseCache::lookup(const weyl::WeylCoord &coord,
                   uarch::PulseSolution &sol)
{
    // The single shard's lock covers every probed cell.
    PulseTable::Shard &shard = table_->shardOf(0);
    std::lock_guard<std::mutex> lk(shard.mu);
    // Probe the coordinate's cell and all 26 neighbours so a match
    // within tolerance is found regardless of cell-boundary effects.
    PulseTable::Entry *best = nullptr;
    double best_dist = tol_;
    for (int n = 0; n < 27; ++n) {
        weyl::WeylCoord probe = coord;
        probe.x += (n / 9 - 1) * tol_;
        probe.y += (n / 3 % 3 - 1) * tol_;
        probe.z += (n % 3 - 1) * tol_;
        auto [it, last] =
            shard.entries.equal_range(cellOf(probe, tol_));
        for (; it != last; ++it) {
            PulseTable::Entry &e = it->second;
            const double d = e.coord.distance(coord);
            // Deterministic choice among candidates: nearest first,
            // coordinate-lexicographic on ties (never container
            // iteration order).
            const bool better = !best || d < best_dist - 1e-15 ||
                                (std::abs(d - best_dist) <= 1e-15 &&
                                 e < *best);
            if (d <= tol_ && better) {
                best = &e;
                best_dist = d;
            }
        }
    }
    // Only verified solutions are served: converged, and the solver's
    // own re-extraction matched its target class.
    if (best && best->converged && best->coordError <= tol_) {
        PulseTable::touch(shard, *best);
        ++shard.stats.hits;
        cacheMetrics().pulseHits->inc();
        best->unpack(sol);
        return true;
    }
    ++shard.stats.misses;
    cacheMetrics().pulseMisses->inc();
    return false;
}

void
PulseCache::store(const weyl::WeylCoord &coord,
                  const uarch::PulseSolution &sol,
                  double solve_seconds)
{
    PulseTable::Entry e;
    e.coord = coord;
    e.pack(sol);
    e.solveSeconds = solve_seconds;
    e.uses = 1;
    table_->add(std::move(e), solve_seconds);
}

CacheCounters
PulseCache::stats() const
{
    return table_->stats();
}

std::size_t
PulseCache::size() const
{
    return table_->size();
}

std::vector<ClassStats>
PulseCache::perClass() const
{
    return table_->perClass();
}

bool
PulseCache::save(const std::string &path) const
{
    return table_->save(path, [this](persist::Writer &w) {
        w.f64(cpl_.a);
        w.f64(cpl_.b);
        w.f64(cpl_.c);
        w.f64(tol_);
    });
}

bool
PulseCache::load(const std::string &path)
{
    // A pulse file is bound to one coupling and one cluster
    // tolerance; anything else would serve solutions for the wrong
    // hardware or cluster classes too aggressively.
    return table_->load(path, [this](persist::Reader &r) {
        double a, b, c, tol;
        return r.f64(a) && r.f64(b) && r.f64(c) && r.f64(tol) &&
               sameBits(a, cpl_.a) && sameBits(b, cpl_.b) &&
               sameBits(c, cpl_.c) && sameBits(tol, tol_);
    });
}

} // namespace reqisc::service
