/**
 * @file
 * First-level-table index policies.
 *
 * A two-level predictor maps the branch PC to a BHT entry.  The
 * conventional scheme hashes the low-order instruction address bits
 * (ModuloIndexer); the paper's branch allocation technique instead
 * lets the compiler specify the entry for each static branch
 * (AllocatedIndexer); and the interference-free reference gives every
 * static branch a private entry (IdealIndexer, the paper's "2 million
 * entry" BHT made exact).
 */

#ifndef BWSA_REFERENCE_INDEX_POLICY_HH
#define BWSA_REFERENCE_INDEX_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "trace/branch_record.hh"

namespace bwsa
{

/**
 * Maps static branch PCs to first-level table indices.
 */
class BhtIndexer
{
  public:
    virtual ~BhtIndexer() = default;

    /**
     * Table index for @p pc.  May allocate new indices internally
     * (IdealIndexer grows on first sight of a branch).
     */
    virtual std::uint64_t index(BranchPc pc) = 0;

    /**
     * Number of distinct indices this policy can produce; 0 means
     * unbounded (the backing table must grow on demand).
     */
    virtual std::uint64_t tableSize() const = 0;

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /**
     * Forget any state accumulated from index() calls.  Stateless
     * policies (ModuloIndexer, AllocatedIndexer) need nothing;
     * IdealIndexer drops its allocated ids so the backing table can
     * shrink back to a fresh predictor's footprint.
     */
    virtual void reset() {}
};

/** Owning handle. */
using BhtIndexerPtr = std::unique_ptr<BhtIndexer>;

/**
 * Conventional PC-hash indexing: (pc / insn_bytes) mod entries.
 */
class ModuloIndexer : public BhtIndexer
{
  public:
    /**
     * @param entries    table size (>= 1)
     * @param insn_shift log2 of instruction alignment (3 for the
     *                   8-byte synthetic ISA), discarding always-zero
     *                   low bits before the modulo
     */
    explicit ModuloIndexer(std::uint64_t entries,
                           unsigned insn_shift = 3);

    std::uint64_t index(BranchPc pc) override;
    std::uint64_t tableSize() const override { return _entries; }
    std::string name() const override;

  private:
    std::uint64_t _entries;
    unsigned _shift;
};

/**
 * Compiler-specified (branch allocation) indexing: each known static
 * branch carries an index assigned by the allocator; branches that
 * were not allocated (cold branches outside the analyzed set, library
 * code) fall back to conventional PC hashing, as the paper notes
 * un-annotated branches must.
 */
class AllocatedIndexer : public BhtIndexer
{
  public:
    /**
     * @param assignment map from branch PC to allocated entry; all
     *                   values must be < entries
     * @param entries    table size (>= 1)
     * @param insn_shift fallback hash alignment shift
     */
    AllocatedIndexer(std::unordered_map<BranchPc, std::uint32_t>
                         assignment,
                     std::uint64_t entries, unsigned insn_shift = 3);

    std::uint64_t index(BranchPc pc) override;
    std::uint64_t tableSize() const override { return _entries; }
    std::string name() const override;

    /** Number of statically allocated branches. */
    std::size_t allocatedCount() const { return _assignment.size(); }

  private:
    std::unordered_map<BranchPc, std::uint32_t> _assignment;
    std::uint64_t _entries;
    unsigned _shift;
};

/**
 * Interference-free indexing: every static branch gets a private,
 * freshly allocated index.
 */
class IdealIndexer : public BhtIndexer
{
  public:
    std::uint64_t index(BranchPc pc) override;
    std::uint64_t tableSize() const override { return 0; }
    std::string name() const override { return "ideal"; }
    void reset() override { _ids.clear(); }

    /** Distinct branches seen so far. */
    std::size_t seen() const { return _ids.size(); }

  private:
    std::unordered_map<BranchPc, std::uint64_t> _ids;
};

} // namespace bwsa

#endif // BWSA_REFERENCE_INDEX_POLICY_HH
