#include "cachecomp/fpc.hh"

#include <algorithm>
#include <cstring>

namespace zcomp {

namespace {

bool
fitsSignExt(uint32_t word, int bits)
{
    auto v = static_cast<int32_t>(word);
    int32_t lo = -(1 << (bits - 1));
    int32_t hi = (1 << (bits - 1)) - 1;
    return v >= lo && v <= hi;
}

} // namespace

FpcPattern
fpcClassify(uint32_t word)
{
    if (word == 0)
        return FpcPattern::ZeroRun;
    if (fitsSignExt(word, 4))
        return FpcPattern::SignExt4;
    if (fitsSignExt(word, 8))
        return FpcPattern::SignExt8;
    if (fitsSignExt(word, 16))
        return FpcPattern::SignExt16;
    if ((word & 0xFFFFu) == 0)
        return FpcPattern::ZeroPaddedHalf;
    {
        auto lo = static_cast<uint16_t>(word);
        auto hi = static_cast<uint16_t>(word >> 16);
        auto fits16 = [](uint16_t h) {
            auto v = static_cast<int16_t>(h);
            return v >= -128 && v <= 127;
        };
        if (fits16(lo) && fits16(hi))
            return FpcPattern::SignExtHalves;
    }
    {
        uint8_t b0 = word & 0xFF;
        if (((word >> 8) & 0xFF) == b0 && ((word >> 16) & 0xFF) == b0 &&
            ((word >> 24) & 0xFF) == b0) {
            return FpcPattern::RepeatedBytes;
        }
    }
    return FpcPattern::Uncompressed;
}

int
fpcPayloadBits(FpcPattern p)
{
    switch (p) {
      case FpcPattern::ZeroRun:
        return 3;       // run length 1..8
      case FpcPattern::SignExt4:
        return 4;
      case FpcPattern::SignExt8:
        return 8;
      case FpcPattern::SignExt16:
        return 16;
      case FpcPattern::ZeroPaddedHalf:
        return 16;
      case FpcPattern::SignExtHalves:
        return 16;
      case FpcPattern::RepeatedBytes:
        return 8;
      case FpcPattern::Uncompressed:
        return 32;
    }
    return 32;
}

int
fpcLineBits(const uint8_t *line)
{
    int bits = 0;
    int zero_run = 0;
    for (int w = 0; w < 16; w++) {
        uint32_t word = 0;
        std::memcpy(&word, line + w * 4, 4);
        FpcPattern p = fpcClassify(word);
        if (p == FpcPattern::ZeroRun) {
            if (zero_run == 0 || zero_run == 8) {
                bits += 3 + fpcPayloadBits(p);
                zero_run = 1;
            } else {
                zero_run++;
            }
            continue;
        }
        zero_run = 0;
        bits += 3 + fpcPayloadBits(p);
    }
    return bits;
}

int
fpcLineBytes(const uint8_t *line)
{
    return std::min(64, (fpcLineBits(line) + 7) / 8);
}

} // namespace zcomp
