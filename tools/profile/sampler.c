/* A sampling profiler to load with LD_PRELOAD: every millisecond of process
 * CPU time, SIGPROF interrupts whichever thread is running and the handler
 * records its call stack by walking frame pointers. At exit the stacks go to
 * $SAMPLER_OUT (one line per sample, leaf first, hex return addresses) and
 * the address map to $SAMPLER_OUT.maps; symbolize.py turns both into a
 * report. Profile a binary built with frame pointers
 * (RUSTFLAGS="-C force-frame-pointers=yes").
 *
 * Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define CAPACITY (8u << 20) /* words: 64 MiB of samples */
#define INTERVAL_US 1000

static uint64_t *buffer;
static atomic_size_t used;
static pid_t self;

/* Copies the frame at `fp` (saved fp, return address) into `frame`. Code
 * built without frame pointers may leave anything in rbp, so the frame is
 * read through the kernel: an unmapped address fails the read instead of
 * faulting the handler. */
static int read_frame(uintptr_t fp, uint64_t frame[2]) {
    struct iovec local = {frame, 2 * sizeof(uint64_t)};
    struct iovec remote = {(void *)fp, 2 * sizeof(uint64_t)};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) == (ssize_t)local.iov_len;
}

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    const mcontext_t *m = &((ucontext_t *)context)->uc_mcontext;
    uint64_t stack[MAX_DEPTH], frame[2];
    size_t depth = 0;
    stack[depth++] = (uint64_t)m->gregs[REG_RIP];
    /* Callers' frames lie above the stack pointer, each above the last. */
    uintptr_t fp = (uintptr_t)m->gregs[REG_RBP];
    if (fp < (uintptr_t)m->gregs[REG_RSP])
        fp = 0;
    while (depth < MAX_DEPTH && fp && (fp & 7) == 0 && read_frame(fp, frame) && frame[1]) {
        stack[depth++] = frame[1];
        fp = frame[0] > fp ? frame[0] : 0;
    }
    size_t at = atomic_fetch_add(&used, depth + 1);
    if (at + depth + 1 > CAPACITY)
        return;
    buffer[at] = depth;
    memcpy(&buffer[at + 1], stack, depth * sizeof(uint64_t));
}

__attribute__((constructor)) static void start(void) {
    buffer = mmap(NULL, CAPACITY * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (buffer == MAP_FAILED || !getenv("SAMPLER_OUT"))
        return;
    self = getpid();
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_prof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    const char *path = getenv("SAMPLER_OUT");
    if (!path || buffer == MAP_FAILED)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(path, "w");
    size_t end = atomic_load(&used);
    for (size_t at = 0; out && at < end && at < CAPACITY;) {
        size_t depth = buffer[at];
        if (at + 1 + depth > CAPACITY)
            break;
        for (size_t i = 0; i < depth; i++)
            fprintf(out, i ? " %lx" : "%lx", (unsigned long)buffer[at + 1 + i]);
        fputc('\n', out);
        at += depth + 1;
    }
    if (out)
        fclose(out);
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
