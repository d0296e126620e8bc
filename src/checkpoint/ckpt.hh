/**
 * @file
 * Versioned, length-prefixed binary checkpoint format
 * (docs/checkpointing.md). A checkpoint is the magic "APIRCKPT", a
 * format version word, and a sequence of named sections, each
 * `u32 nameLen | name | u64 payloadLen | payload`. Sections are
 * written and read in a fixed order; every mismatch — wrong magic,
 * version skew, unexpected section name, truncated payload, trailing
 * bytes — is a located fatal naming the file and the offending
 * section, so a stale or corrupt checkpoint can never silently
 * produce a plausible-but-wrong simulation.
 *
 * State is transferred by one symmetric visitor per component,
 * `visitState(ckpt::Archive &)`, which lists the component's dynamic
 * fields once; the Writer and the Reader both run it, so save and
 * restore cannot drift apart. Records are visited field by field, and
 * only padding-free types are ever bit-copied, so a file's bytes are
 * a pure function of the machine state.
 *
 * Only dynamic state is serialized. Anything rebuilt deterministically
 * from (app, scale, seed, config) — specs, lambdas, workload graphs,
 * bucket geometry — is reconstructed by re-running the build path and
 * then overlaying the serialized state on top (gem5-style restore).
 */

#ifndef APIR_CHECKPOINT_CKPT_HH
#define APIR_CHECKPOINT_CKPT_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace apir {
namespace ckpt {

/**
 * Current checkpoint format version. Bump on any layout change.
 * v2: records are visited field by field (v1 bit-copied padded
 * structs, so files carried uninitialized padding bytes).
 */
inline constexpr uint32_t kVersion = 2;

/**
 * May `T` be moved as raw bytes? Only if every byte of it is value:
 * arithmetic types, and types whose object representation is unique
 * (no padding). Everything else is visited field by field.
 */
template <typename T>
inline constexpr bool kBulk =
    std::is_arithmetic_v<T> || std::has_unique_object_representations_v<T>;

/** Is `T` an instance of the class template `Tmpl`? */
template <typename T, template <typename...> class Tmpl>
inline constexpr bool kIs = false;
template <template <typename...> class Tmpl, typename... A>
inline constexpr bool kIs<Tmpl<A...>, Tmpl> = true;

/**
 * The common base of Writer and Reader: one symmetric visitor per
 * component serves both directions. `ar(a, b, c)` transfers each
 * field — bulk types as bytes, records through their own
 * `visitState(ar)`, and strings, vectors, deques, pairs, optionals
 * and owned pointers structurally.
 */
class Archive
{
  public:
    virtual ~Archive() = default;
    Archive(const Archive &) = delete;
    Archive &operator=(const Archive &) = delete;

    /** True on the restore side; gates load-only fix-ups. */
    bool loading() const { return loading_; }
    /** File being read (empty while writing). */
    const std::string &path() const { return path_; }

    /** Open a named section; sections must not nest. */
    virtual void begin(const std::string &name) = 0;
    /** Close the current section. */
    virtual void end() = 0;
    /** Move `n` raw bytes between `p` and the archive. */
    virtual void bytes(void *p, size_t n) = 0;

    /** Transfer every argument in order. */
    template <typename... T>
    void
    operator()(T &...v)
    {
        (visit(v), ...);
    }

    /** A named section holding exactly `v...`. */
    template <typename... T>
    void
    section(const std::string &name, T &...v)
    {
        begin(name);
        (visit(v), ...);
        end();
    }

    /**
     * A count fixed by the machine's structure: saved as-is, and on
     * restore anything but `built` is a located fatal.
     */
    void count(uint64_t built, std::string_view what);

    /** A vector whose length the structural config fixes. */
    template <typename T, typename A>
    void
    fixed(std::vector<T, A> &v, std::string_view what)
    {
        count(v.size(), what);
        elements(v);
    }

    /** Set or multiset of keys, in its (sorted) iteration order. */
    template <typename S>
    void
    keys(S &s)
    {
        uint64_t n = length(s.size());
        if (loading()) {
            s.clear();
            for (uint64_t i = 0; i < n; ++i) {
                typename S::value_type k{};
                visit(k);
                s.insert(s.end(), k);
            }
            return;
        }
        for (const auto &key : s) {
            typename S::value_type k = key;
            visit(k);
        }
    }

    /**
     * Key -> value map in sorted-key order, so the bytes do not depend
     * on a hash map's iteration order; `value(v)` transfers one value.
     */
    template <typename M, typename Fn>
    void
    sortedMap(M &m, Fn &&value)
    {
        using K = typename M::key_type;
        uint64_t n = length(m.size());
        if (loading()) {
            m.clear();
            for (uint64_t i = 0; i < n; ++i) {
                K k{};
                visit(k);
                value(m.try_emplace(m.end(), k)->second);
            }
            return;
        }
        if constexpr (requires { typename M::key_compare; }) {
            for (auto &[key, v] : m) { // already in key order
                K k = key;
                visit(k);
                value(v);
            }
        } else {
            std::vector<K> sorted;
            sorted.reserve(m.size());
            for (const auto &kv : m)
                sorted.push_back(kv.first);
            std::sort(sorted.begin(), sorted.end());
            for (K &k : sorted) {
                visit(k);
                value(m.find(k)->second);
            }
        }
    }

    template <typename M>
    void
    sortedMap(M &m)
    {
        sortedMap(m, [this](auto &v) { visit(v); });
    }

  protected:
    explicit Archive(bool loading) : loading_(loading) {}

    /**
     * Load side: fatal unless `n` elements of at least `each` bytes
     * can still follow (the count is checked by division, so a
     * crafted count cannot overflow into a huge allocation).
     */
    virtual void need(uint64_t, size_t) {}

    std::string path_;

  private:
    /** Transfer a container length (validated on load). */
    uint64_t
    length(uint64_t n, size_t each = 1)
    {
        visit(n);
        if (loading())
            need(n, each);
        return n;
    }

    /** Bulk-copied: padding-free, not bool, no visitor of its own. */
    template <typename T>
    static constexpr bool
    bulk()
    {
        return kBulk<T> && !std::is_same_v<T, bool> &&
               !requires(T &v, Archive &ar) { v.visitState(ar); };
    }

    /**
     * The only bulk copy: `n` values of a type with no padding, so
     * uninitialized bytes can never reach a file.
     */
    template <typename T>
    void
    raw(T *p, size_t n)
    {
        static_assert(kBulk<T> && !std::is_same_v<T, bool>,
                      "bulk copy of a type with padding (or bool): "
                      "visit it field by field");
        if (n)
            bytes(p, n * sizeof(T));
    }

    /** Transfer the elements of a sized container in place. */
    template <typename C>
    void
    elements(C &c)
    {
        using T = typename C::value_type;
        if constexpr (bulk<T>() && requires { c.data(); })
            raw(c.data(), c.size());
        else
            for (auto &e : c)
                visit(e);
    }

    template <typename T>
    void
    visit(T &v)
    {
        if constexpr (requires { v.visitState(*this); }) {
            v.visitState(*this);
        } else if constexpr (std::is_same_v<T, bool>) {
            uint8_t b = v ? 1 : 0;
            bytes(&b, 1);
            v = b != 0;
        } else if constexpr (kBulk<T>) {
            raw(&v, 1);
        } else if constexpr (std::is_same_v<T, std::string>) {
            v.resize(length(v.size()));
            raw(v.data(), v.size());
        } else if constexpr (kIs<T, std::vector> || kIs<T, std::deque>) {
            using E = typename T::value_type;
            v.resize(length(v.size(), bulk<E>() ? sizeof(E) : 1));
            elements(v);
        } else if constexpr (kIs<T, std::pair>) {
            visit(v.first);
            visit(v.second);
        } else if constexpr (kIs<T, std::optional>) {
            bool has = v.has_value();
            visit(has);
            if (loading() && has)
                v.emplace();
            if (loading() && !has)
                v.reset();
            if (has)
                visit(*v);
        } else if constexpr (kIs<T, std::unique_ptr>) {
            visit(*v);
        } else {
            static_assert(sizeof(T) == 0,
                          "no checkpoint visitor for this type: give it "
                          "a visitState(ar) listing its fields");
        }
    }

    bool loading_;
};

/** Serializes state into an in-memory buffer, then writes the file. */
class Writer : public Archive
{
  public:
    Writer() : Archive(false) {}

    void begin(const std::string &name) override;
    /** Close the current section, patching its length prefix. */
    void end() override;
    void bytes(void *p, size_t n) override;

    /** Write magic + version + all sections to `path` (fatal on I/O). */
    void finish(const std::string &path) const;

  private:
    std::vector<uint8_t> buf_;
    size_t lenPatchAt_ = ~size_t(0); //!< offset of open section's length
    std::string openSection_;
};

/** Loads a checkpoint file and replays its sections in order. */
class Reader : public Archive
{
  public:
    /** Load + validate magic and version (located fatals). */
    explicit Reader(const std::string &path);

    /**
     * Enter the next section, which must be named `name` — reading
     * sections out of the order they were written is a fatal, as is
     * hitting end-of-file.
     */
    void begin(const std::string &name) override;
    /** Leave the section; leftover unread payload bytes are a fatal. */
    void end() override;
    void bytes(void *p, size_t n) override;

    /** True once every section has been fully consumed. */
    bool atEnd() const { return pos_ == buf_.size(); }

  protected:
    void need(uint64_t n, size_t each) override;

  private:
    void checkAvail(uint64_t n, const char *what) const;

    std::vector<uint8_t> buf_;
    size_t pos_ = 0;
    size_t sectionEnd_ = 0;
    std::string openSection_;
    bool inSection_ = false;
};

} // namespace ckpt
} // namespace apir

#endif // APIR_CHECKPOINT_CKPT_HH
