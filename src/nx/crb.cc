#include "nx/crb.h"

#include "util/checked.h"

namespace nx {

const char *
toString(CondCode cc)
{
    switch (cc) {
      case CondCode::Success: return "Success";
      case CondCode::TranslationFault: return "TranslationFault";
      case CondCode::OutputOverflow: return "OutputOverflow";
      case CondCode::BadCrb: return "BadCrb";
      case CondCode::BadData: return "BadData";
    }
    return "Unknown";
}

uint64_t
DdeList::totalBytes() const
{
    uint64_t n = 0;
    for (const Dde &d : entries)
        n += d.length;
    return n;
}

DdeList
DdeList::direct(uint64_t address, uint32_t length)
{
    DdeList l;
    l.entries.push_back({address, length});
    return l;
}

CondCode
validateCrb(const Crb &crb)
{
    if (crb.target.entries.empty())
        return CondCode::BadCrb;
    for (const Dde &d : crb.source.entries)
        if (d.length == 0 && crb.source.entries.size() > 1)
            return CondCode::BadCrb;
    return CondCode::Success;
}

Crb
compressCrb(FuncCode func, Framing framing, uint64_t source_bytes,
            uint64_t seq)
{
    Crb crb;
    crb.func = func;
    crb.framing = framing;
    crb.source = DdeList::direct(0x1000, checked_cast<uint32_t>(
        source_bytes));
    crb.target = DdeList::direct(0x2000000, checked_cast<uint32_t>(
        source_bytes + source_bytes / 7 + 1024));
    crb.seq = seq;
    return crb;
}

} // namespace nx
