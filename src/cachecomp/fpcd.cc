#include "cachecomp/fpcd.hh"

#include <algorithm>
#include <cstring>

#include "cachecomp/fpc.hh"

namespace zcomp {

int
fpcdLineBytes(const uint8_t *line)
{
    // Small FIFO dictionary of recent in-line words.
    uint32_t dict[fpcdDictEntries] = {};
    int dict_fill = 0;
    int next_slot = 0;

    int payload_bits = 0;
    for (int w = 0; w < 16; w++) {
        uint32_t word = 0;
        std::memcpy(&word, line + w * 4, 4);

        // Zero words use the dedicated pattern code and bypass the
        // dictionary entirely.
        if (word == 0)
            continue;

        // Dictionary full / partial matches take priority over the
        // significance patterns (they capture repeated fp32 values and
        // values sharing exponent+high-mantissa bits).
        bool full = false, partial = false;
        for (int d = 0; d < dict_fill; d++) {
            if (dict[d] == word) {
                full = true;
                break;
            }
            if ((dict[d] >> 8) == (word >> 8))
                partial = true;
        }
        if (full) {
            payload_bits += 1;      // dictionary index
        } else if (partial) {
            payload_bits += 1 + 8;  // index + low byte
        } else {
            payload_bits += fpcPayloadBits(fpcClassify(word));
        }
        if (!full) {
            dict[next_slot] = word;
            next_slot = (next_slot + 1) % fpcdDictEntries;
            dict_fill = std::min(dict_fill + 1, fpcdDictEntries);
        }
    }

    int bytes = fpcdPrefixBytes + (payload_bits + 7) / 8;
    return std::min(64, bytes);
}

} // namespace zcomp
