/* Exact set-associative LRU walk; loaded by repro/arch/lru.py.
 *
 * state holds n_sets * assoc tags, each set in recency order: way 0 is
 * the MRU line, an empty way holds UINT64_MAX (never a valid tag).
 * Access i probes set sets[i] (set 0 when sets is NULL) for keys[i] and
 * writes 1 to miss[i] on a miss.  The probed key always ends up MRU; on
 * a miss the LRU way (or an empty one) falls off the end.
 */
#include <stdint.h>
#include <string.h>

void lru_walk(uint64_t *state, int64_t assoc, const uint64_t *sets,
              const uint64_t *keys, int64_t n, uint8_t *miss)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t *w = state + (sets ? sets[i] * (uint64_t)assoc : 0);
        uint64_t k = keys[i];
        int64_t j = 0;
        while (j < assoc - 1 && w[j] != k)
            j++;
        miss[i] = w[j] != k;
        memmove(w + 1, w, (size_t)j * sizeof *w);
        w[0] = k;
    }
}
