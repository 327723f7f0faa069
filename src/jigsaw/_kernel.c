/* The backtracking search kernel in C: a statement-for-statement copy of
 * kernels._search_impl, which is the reference and documents the inputs.
 *
 * kernels builds this file with the system C compiler into a shared
 * library and calls jigsaw_search through ctypes.  Every array is int64.
 * The wrapper in kernels checks each buffer's type and length before
 * any pointer gets here; inputs_ok then checks that every index the
 * search reads out of one array lands inside the buffer it indexes.
 */
#include <stdint.h>

#define STATUS_COMPLETE 0
#define STATUS_LIMIT 1
#define STATUS_BUDGET 2
#define STATUS_BAD_INPUT (-1)

/* Whether the table, the candidates and the cell order index only
 * inside their buffers: slots = 2**bits, orients = len(bottoms). */
static int inputs_ok(const int64_t *items, int64_t num_items, const int64_t *keys, const int64_t *los,
                     const int64_t *his, int64_t slots, int64_t width, const int64_t *top_pos,
                     const int64_t *left_pos, int64_t num_cells, const int64_t *bottoms, const int64_t *rights,
                     int64_t orients, const int64_t *prev_out, const int64_t *tcost, const int64_t *lcost)
{
    int empty = 0;
    for (int64_t s = 0; s < slots; s++) {
        empty |= keys[s] == -1;
        if (los[s] < 0 || los[s] > his[s] || his[s] > num_items)
            return 0;
    }
    for (int64_t i = 0; i < num_items; i++)
        if (items[i] < 0 || items[i] >= orients)
            return 0;
    for (int64_t o = 0; o < orients; o++)
        if (bottoms[o] < 0 || bottoms[o] >= width || rights[o] < 0 || rights[o] >= width
            || (tcost[o] | lcost[o]) & ~1)
            return 0;
    for (int64_t d = 0; d < num_cells; d++)
        if (top_pos[d] < -1 || top_pos[d] >= d || left_pos[d] < -1 || left_pos[d] >= d
            || prev_out[d] < -1 || prev_out[d] >= d)
            return 0;
    return empty && num_cells > 0;
}

/* kernels._search_impl, with the array lengths that C cannot see passed
 * in, and (count, nodes, stored) written to result.  Returns the status. */
int64_t jigsaw_search(const int64_t *items, int64_t num_items, const int64_t *keys, const int64_t *los,
                      const int64_t *his, int64_t bits, int64_t width, const int64_t *top_pos,
                      const int64_t *left_pos, int64_t num_cells, const int64_t *bottoms,
                      const int64_t *rights, int64_t orients, int64_t slack, const int64_t *prev_out,
                      const int64_t *tcost, const int64_t *lcost, int64_t limit, int64_t budget,
                      int64_t max_store, int64_t *sols, int64_t *used, int64_t *chosen, int64_t *ptr,
                      int64_t *end, int64_t *spent, int64_t *result)
{
    if (!inputs_ok(items, num_items, keys, los, his, (int64_t)1 << bits, width, top_pos, left_pos,
                   num_cells, bottoms, rights, orients, prev_out, tcost, lcost))
        return STATUS_BAD_INPUT;
    int64_t status;
    int64_t last = num_cells - 1;
    int64_t wild = width - 2; /* odd colours only; wild + 1 is any colour */
    uint64_t mask = ((uint64_t)1 << bits) - 1;
    int64_t count = 0;
    int64_t nodes = 0;
    int64_t stored = 0;
    int64_t it = 0;
    int64_t k = 0;
    int64_t i, h, key;
    for (;;) {
        /* position k was just reached: find its candidate range */
        int64_t tp = top_pos[k];
        int64_t lp = left_pos[k];
        if (tp >= 0 && lp >= 0) {
            key = bottoms[chosen[tp]] * width + rights[chosen[lp]];
        } else {
            int64_t p = prev_out[k];
            if (p >= 0) {
                int64_t c = chosen[p];
                spent[k] = spent[p] + (top_pos[p] < 0 ? tcost[c] : 0) + (left_pos[p] < 0 ? lcost[c] : 0);
            }
            int64_t w = spent[k] < slack ? wild + 1 : wild;
            key = (tp < 0 ? w : bottoms[chosen[tp]]) * width + (lp < 0 ? w : rights[chosen[lp]]);
        }
        uint64_t s = (((uint64_t)key * 0x9E3779B1u) & 0xFFFFFFFFu) >> (32 - bits); /* home_slot */
        while (keys[s] != key && keys[s] != -1)
            s = (s + 1) & mask;
        i = los[s];
        h = his[s];
        for (;;) {
            while (i < h && used[items[i] >> 2] == 1)
                i += 1;
            if (i < h) {
                it = items[i];
                nodes += 1;
                if (nodes > budget) {
                    status = STATUS_BUDGET;
                    goto done;
                }
                chosen[k] = it;
                if (k < last)
                    break;
                count += 1;
                if (stored < max_store) {
                    int64_t base = stored * num_cells;
                    for (int64_t d = 0; d < num_cells; d++)
                        sols[base + d] = chosen[d];
                    stored += 1;
                }
                if (count >= limit) {
                    status = STATUS_LIMIT;
                    goto done;
                }
                i += 1;
            } else {
                if (k == 0) {
                    status = STATUS_COMPLETE;
                    goto done;
                }
                k -= 1;
                used[chosen[k] >> 2] = 0;
                i = ptr[k] + 1;
                h = end[k];
            }
        }
        used[it >> 2] = 1;
        ptr[k] = i;
        end[k] = h;
        k += 1;
    }
done:
    result[0] = count;
    result[1] = nodes;
    result[2] = stored;
    return status;
}
