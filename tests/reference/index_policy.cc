#include "reference/index_policy.hh"

#include "util/logging.hh"

namespace bwsa
{

ModuloIndexer::ModuloIndexer(std::uint64_t entries, unsigned insn_shift)
    : _entries(entries), _shift(insn_shift)
{
    if (entries == 0)
        bwsa_panic("ModuloIndexer requires at least 1 entry");
}

std::uint64_t
ModuloIndexer::index(BranchPc pc)
{
    return (pc >> _shift) % _entries;
}

std::string
ModuloIndexer::name() const
{
    return "pc-mod-" + std::to_string(_entries);
}

AllocatedIndexer::AllocatedIndexer(
    std::unordered_map<BranchPc, std::uint32_t> assignment,
    std::uint64_t entries, unsigned insn_shift)
    : _assignment(std::move(assignment)), _entries(entries),
      _shift(insn_shift)
{
    if (entries == 0)
        bwsa_panic("AllocatedIndexer requires at least 1 entry");
    for (const auto &[pc, idx] : _assignment)
        if (idx >= entries)
            bwsa_panic("allocated index ", idx, " for pc ", pc,
                       " exceeds table size ", entries);
}

std::uint64_t
AllocatedIndexer::index(BranchPc pc)
{
    auto it = _assignment.find(pc);
    if (it != _assignment.end())
        return it->second;
    return (pc >> _shift) % _entries;
}

std::string
AllocatedIndexer::name() const
{
    return "alloc-" + std::to_string(_entries);
}

std::uint64_t
IdealIndexer::index(BranchPc pc)
{
    return _ids.emplace(pc, _ids.size()).first->second;
}

} // namespace bwsa
