/* A heap-at-peak profiler to load with LD_PRELOAD. It interposes malloc,
 * calloc, realloc, free and posix_memalign, records the call stack of every
 * live block by walking frame pointers, and keeps the live bytes of each
 * distinct stack. Whenever the live total passes its last high-water mark by
 * 1 MiB, it snapshots those per-stack totals, so the last snapshot is the
 * heap within 1 MiB of its peak. At exit the snapshot goes to $HEAP_OUT (a
 * `#` header line, then one line per stack: live bytes, then hex return
 * addresses, leaf first) and the address map to $HEAP_OUT.maps;
 * `symbolize.py --bytes` turns both into a report. Profile a binary built
 * with frame pointers (RUSTFLAGS="-C force-frame-pointers=yes").
 *
 * Build: gcc -O2 -shared -fPIC -o heap.so heap.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);
extern void *__libc_memalign(size_t, size_t);

#define MAX_DEPTH 48
#define STEP (1u << 20)         /* bytes of new high water per snapshot */
#define MAX_STACKS (1u << 19)   /* distinct stacks; more share stack 0 */
#define STACK_SLOTS (1u << 20)  /* hash slots of the stack table */
#define FIRST_BLOCKS (1u << 20) /* block slots; doubled at half load */

struct stack {
    uint64_t hash;
    uint32_t depth;
    uintptr_t pcs[MAX_DEPTH];
};

struct block {
    uintptr_t ptr; /* 0: free slot */
    uint32_t size; /* clamped to 4 GiB - 1; added and removed alike */
    uint32_t stack;
};

static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static int enabled;
static struct stack *stacks;    /* stack 0 is the overflow stack */
static uint32_t *stack_slots;   /* id + 1, or 0 */
static uint32_t stack_count = 1;
static int64_t *live, *snap;    /* bytes per stack, now and at the snapshot */
static uint32_t snap_count;
static int64_t total, mark, peak, snap_total;
static struct block *blocks;
static size_t block_cap, block_count;

/* Set while this thread is inside a hook, so what libc allocates for the
 * profiler itself (stack bounds, the report) is not tracked. */
static __thread int in_hook __attribute__((tls_model("initial-exec")));
static __thread uintptr_t stack_lo __attribute__((tls_model("initial-exec")));
static __thread uintptr_t stack_hi __attribute__((tls_model("initial-exec")));

static void *map(size_t bytes) {
    void *at = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    return at == MAP_FAILED ? NULL : at;
}

/* The mapping of /proc/self/maps that holds `sp`, read with plain
 * syscalls: pthread_getattr_np would allocate, and may be the caller that
 * holds the thread's lock while it does. */
static void find_stack(uintptr_t sp) {
    char buf[4096];
    size_t have = 0;
    ssize_t got;
    int fd = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
    stack_lo = stack_hi = sp;
    if (fd < 0)
        return;
    while ((got = read(fd, buf + have, sizeof buf - 1 - have)) > 0) {
        have += (size_t)got;
        buf[have] = 0;
        char *line = buf, *end;
        while ((end = strchr(line, '\n'))) {
            unsigned long lo, hi;
            if (sscanf(line, "%lx-%lx", &lo, &hi) == 2 && lo <= sp && sp < hi) {
                stack_lo = lo;
                stack_hi = hi;
                close(fd);
                return;
            }
            line = end + 1;
        }
        have -= (size_t)(line - buf);
        memmove(buf, line, have);
    }
    close(fd);
}

/* The return addresses above the frame at `fp`, within this thread's
 * stack: a frame pointer outside it (code built without frame pointers
 * leaves anything in rbp) ends the walk instead of faulting. */
static uint32_t walk(uintptr_t fp, uintptr_t *pcs) {
    uintptr_t sp = (uintptr_t)__builtin_frame_address(0);
    if (sp < stack_lo || sp >= stack_hi)
        find_stack(sp);
    uint32_t depth = 0;
    while (depth < MAX_DEPTH && fp >= sp && fp + 16 <= stack_hi && (fp & 7) == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (!frame[1])
            break;
        pcs[depth++] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    return depth;
}

static uint32_t intern(const uintptr_t *pcs, uint32_t depth) {
    uint64_t hash = 0xcbf29ce484222325u ^ depth;
    for (uint32_t i = 0; i < depth; i++)
        hash = (hash ^ pcs[i]) * 0x100000001b3u;
    for (uint32_t slot = hash & (STACK_SLOTS - 1);; slot = (slot + 1) & (STACK_SLOTS - 1)) {
        uint32_t id = stack_slots[slot];
        if (!id) {
            if (stack_count == MAX_STACKS)
                return 0;
            id = stack_count++;
            stacks[id].hash = hash;
            stacks[id].depth = depth;
            memcpy(stacks[id].pcs, pcs, depth * sizeof *pcs);
            stack_slots[slot] = id + 1;
            return id;
        }
        const struct stack *s = &stacks[id - 1];
        if (s->hash == hash && s->depth == depth && !memcmp(s->pcs, pcs, depth * sizeof *pcs))
            return id - 1;
    }
}

static size_t block_slot(uintptr_t ptr, size_t cap) {
    return (size_t)(((uint64_t)ptr >> 4) * 0x9e3779b97f4a7c15u >> 20) & (cap - 1);
}

static void place_block(struct block *table, size_t cap, struct block entry) {
    size_t slot = block_slot(entry.ptr, cap);
    while (table[slot].ptr)
        slot = (slot + 1) & (cap - 1);
    table[slot] = entry;
}

/* Doubles the block table; on failure keeps the old one, which only fills. */
static void grow_blocks(void) {
    size_t cap = block_cap ? 2 * block_cap : FIRST_BLOCKS;
    struct block *table = map(cap * sizeof *table);
    if (!table)
        return;
    for (size_t i = 0; i < block_cap; i++)
        if (blocks[i].ptr)
            place_block(table, cap, blocks[i]);
    if (blocks)
        munmap(blocks, block_cap * sizeof *blocks);
    blocks = table;
    block_cap = cap;
}

/* Removes the block at `ptr`, if tracked, into `out`. Linear probing with
 * backward-shift deletion, so no tombstones accumulate. */
static int take_block(uintptr_t ptr, struct block *out) {
    size_t slot = block_slot(ptr, block_cap);
    while (blocks[slot].ptr != ptr) {
        if (!blocks[slot].ptr)
            return 0;
        slot = (slot + 1) & (block_cap - 1);
    }
    *out = blocks[slot];
    for (size_t hole = slot, next = (slot + 1) & (block_cap - 1);; next = (next + 1) & (block_cap - 1)) {
        if (!blocks[next].ptr) {
            blocks[hole].ptr = 0;
            break;
        }
        size_t home = block_slot(blocks[next].ptr, block_cap);
        /* `next` may fill the hole unless its home lies in (hole, next]. */
        int stays = hole <= next ? (hole < home && home <= next) : (hole < home || home <= next);
        if (!stays) {
            blocks[hole] = blocks[next];
            hole = next;
        }
    }
    block_count--;
    live[out->stack] -= out->size;
    total -= out->size;
    return 1;
}

static void track(void *ptr, size_t size, uintptr_t fp) {
    uintptr_t pcs[MAX_DEPTH];
    uint32_t depth = walk(fp, pcs);
    uint32_t bytes = size < UINT32_MAX ? (uint32_t)size : UINT32_MAX;
    pthread_mutex_lock(&lock);
    if (enabled && 2 * (block_count + 1) > block_cap)
        grow_blocks();
    if (enabled && 2 * (block_count + 1) <= block_cap) {
        uint32_t id = intern(pcs, depth);
        place_block(blocks, block_cap, (struct block){(uintptr_t)ptr, bytes, id});
        block_count++;
        live[id] += bytes;
        total += bytes;
        if (total > peak)
            peak = total;
        if (total >= mark + STEP) {
            memcpy(snap, live, stack_count * sizeof *live);
            snap_count = stack_count;
            snap_total = mark = total;
        }
    }
    pthread_mutex_unlock(&lock);
}

static void untrack(void *ptr) {
    struct block gone;
    pthread_mutex_lock(&lock);
    if (enabled && block_cap)
        take_block((uintptr_t)ptr, &gone);
    pthread_mutex_unlock(&lock);
}

void *malloc(size_t size) {
    void *ptr = __libc_malloc(size);
    if (ptr && enabled && !in_hook) {
        in_hook = 1;
        track(ptr, size, (uintptr_t)__builtin_frame_address(0));
        in_hook = 0;
    }
    return ptr;
}

void *calloc(size_t count, size_t size) {
    void *ptr = __libc_calloc(count, size);
    if (ptr && enabled && !in_hook) {
        in_hook = 1;
        track(ptr, count * size, (uintptr_t)__builtin_frame_address(0));
        in_hook = 0;
    }
    return ptr;
}

void free(void *ptr) {
    if (ptr && enabled && !in_hook) {
        in_hook = 1;
        untrack(ptr);
        in_hook = 0;
    }
    __libc_free(ptr);
}

void *realloc(void *old, size_t size) {
    if (!enabled || in_hook)
        return __libc_realloc(old, size);
    in_hook = 1;
    /* Untracked first: once `old` is freed another thread may be handed
     * the same address. Put back if the block stays where it was. */
    struct block was = {0, 0, 0};
    pthread_mutex_lock(&lock);
    int held = old && block_cap && take_block((uintptr_t)old, &was);
    pthread_mutex_unlock(&lock);
    void *ptr = __libc_realloc(old, size);
    if (ptr) {
        track(ptr, size, (uintptr_t)__builtin_frame_address(0));
    } else if (held && size) {
        pthread_mutex_lock(&lock);
        place_block(blocks, block_cap, was);
        block_count++;
        live[was.stack] += was.size;
        total += was.size;
        pthread_mutex_unlock(&lock);
    }
    in_hook = 0;
    return ptr;
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (align < sizeof(void *) || (align & (align - 1)))
        return EINVAL;
    void *ptr = __libc_memalign(align, size);
    if (!ptr)
        return ENOMEM;
    *out = ptr;
    if (enabled && !in_hook) {
        in_hook = 1;
        track(ptr, size, (uintptr_t)__builtin_frame_address(0));
        in_hook = 0;
    }
    return 0;
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("HEAP_OUT"))
        return;
    stacks = map(MAX_STACKS * sizeof *stacks);
    stack_slots = map(STACK_SLOTS * sizeof *stack_slots);
    live = map(MAX_STACKS * sizeof *live);
    snap = map(MAX_STACKS * sizeof *snap);
    if (!stacks || !stack_slots || !live || !snap)
        return;
    pthread_mutex_lock(&lock);
    grow_blocks();
    enabled = block_cap != 0;
    pthread_mutex_unlock(&lock);
}

__attribute__((destructor)) static void finish(void) {
    const char *path = getenv("HEAP_OUT");
    pthread_mutex_lock(&lock);
    int was_enabled = enabled;
    enabled = 0;
    pthread_mutex_unlock(&lock);
    if (!path || !was_enabled)
        return;
    FILE *out = fopen(path, "w");
    if (out) {
        fprintf(out, "# peak %lld bytes, snapshot %lld bytes, %u stacks\n", (long long)peak,
                (long long)snap_total, snap_count);
        for (uint32_t id = 0; id < snap_count; id++) {
            if (snap[id] <= 0)
                continue;
            fprintf(out, "%lld", (long long)snap[id]);
            for (uint32_t i = 0; i < stacks[id].depth; i++)
                fprintf(out, " %lx", (unsigned long)stacks[id].pcs[i]);
            fputc('\n', out);
        }
        fclose(out);
    }
    char maps_path[4096];
    snprintf(maps_path, sizeof maps_path, "%s.maps", path);
    FILE *maps = fopen("/proc/self/maps", "r"), *copy = fopen(maps_path, "w");
    char line[4096];
    while (maps && copy && fgets(line, sizeof line, maps))
        fputs(line, copy);
    if (maps)
        fclose(maps);
    if (copy)
        fclose(copy);
}
