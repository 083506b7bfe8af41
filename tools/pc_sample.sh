#!/usr/bin/env bash
# Statistical PC profile of one program run, split by inlined source
# function.
#
#   tools/pc_sample.sh [-z HZ] [-n TOP] [-k DIR] -- PROGRAM [ARGS...]
#
# An LD_PRELOAD library arms ITIMER_PROF in the program (and in any
# process it starts) and records the interrupted program counter on
# every SIGPROF; at exit each process writes its samples and its
# executable mappings to one file. addr2line -i then expands every
# sampled PC of the program's own binary into its chain of inlined
# frames, and each sample is charged to the innermost frame whose file
# lies under src/ (the simulator library), or to the innermost frame
# when none does. The program's own output goes to stderr; the profile
# (share, samples, function, file) goes to stdout, followed by the
# hottest source lines.
#
# Why not gprof (tools/profile_bench.sh): the hot replay path is one
# [[gnu::flatten]] function (Core::accessRun) into which the TLB, PWC,
# walker and cache models are all inlined, so gprof charges every
# layer to it, and `gprof -l` aborts on such binaries. The sampler
# sees through inlining because addr2line -i resolves the inline
# chain of each PC from the DWARF info. It acts only on the processes
# it is preloaded into.
#
# Build the program with debug info and the usual optimisation, e.g.
# perfbench's mitobench:
#   cmake -S perfbench -B /tmp/pb -DCMAKE_BUILD_TYPE=Release \
#       -DCMAKE_CXX_FLAGS=-g
#   cmake --build /tmp/pb --target mitobench -j4
#   tools/pc_sample.sh -- /tmp/pb/mitobench --workload walk_4k --seed 1
#
# Options:
#   -z HZ    samples per second of CPU time (default 1000)
#   -n TOP   rows to print per table (default 25)
#   -k DIR   keep the raw sample files in DIR
set -euo pipefail

hz=1000
top=25
keep=""
while getopts "z:n:k:h" opt; do
    case $opt in
      z) hz=$OPTARG ;;
      n) top=$OPTARG ;;
      k) keep=$OPTARG ;;
      *) sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'
         exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ "${1:-}" = "--" ] && shift
if [ $# -eq 0 ]; then
    echo "usage: $0 [-z HZ] [-n TOP] [-k DIR] -- PROGRAM [ARGS...]" >&2
    exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/pc_sample.XXXXXX")
trap 'rm -rf "$work"' EXIT

cat > "$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)

static uintptr_t *pcs;
static volatile size_t count;

static void
on_prof(int sig, siginfo_t *si, void *ctx)
{
    (void)sig;
    (void)si;
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pc_sample: unsupported architecture"
#endif
    if (count < MAX_SAMPLES)
        pcs[count++] = pc;
}

__attribute__((constructor)) static void
start(void)
{
    const char *hz_s = getenv("PC_SAMPLE_HZ");
    long hz = hz_s ? atol(hz_s) : 1000;
    if (hz <= 0 || !getenv("PC_SAMPLE_DIR"))
        return;
    pcs = malloc(MAX_SAMPLES * sizeof *pcs);
    if (!pcs)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = hz >= 1000000 ? 1 : 1000000 / hz;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    if (!pcs)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s/samples.%ld", getenv("PC_SAMPLE_DIR"),
             (long)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = '\0';
    fprintf(out, "exe %s\n", exe);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[8192];
    while (maps && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi, off_;
        char perms[8], file[4096] = "";
        if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095s", &lo, &hi, perms,
                   &off_, file) >= 4 &&
            perms[2] == 'x' && strcmp(file, exe) == 0)
            fprintf(out, "map %lx %lx %lx\n", lo, hi, off_);
    }
    if (maps)
        fclose(maps);
    for (size_t i = 0; i < count; ++i)
        fprintf(out, "pc %lx\n", (unsigned long)pcs[i]);
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

mkdir -p "$work/samples"
set +e
PC_SAMPLE_DIR="$work/samples" PC_SAMPLE_HZ="$hz" \
    LD_PRELOAD="$work/sampler.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" >&2
status=$?
set -e
[ -n "$keep" ] && mkdir -p "$keep" && cp "$work"/samples/* "$keep"/ 2>/dev/null

python3 - "$work/samples" "$top" <<'EOF'
import collections
import glob
import subprocess
import sys

sample_dir, top = sys.argv[1], int(sys.argv[2])


def is_pie(path):
    with open(path, "rb") as f:
        head = f.read(18)
    return head[:4] == b"\x7fELF" and head[16] == 3  # ET_DYN


def symbolize(binary, addrs):
    """address -> [(function, file:line), ...], innermost frame first."""
    if not addrs:
        return {}
    res = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True, text=True, check=True)
    out, cur = {}, None
    lines = res.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            cur = int(lines[i], 16)
            out[cur] = []
            i += 1
            continue
        func = lines[i]
        loc = lines[i + 1] if i + 1 < len(lines) else "??:0"
        out[cur].append((func, loc))
        i += 2
    return out


by_func = collections.Counter()
by_line = collections.Counter()
total = 0
for path in glob.glob(sample_dir + "/samples.*"):
    exe, maps, pcs = None, [], []
    with open(path) as f:
        for line in f:
            kind, *rest = line.split()
            if kind == "exe":
                exe = rest[0] if rest else None
            elif kind == "map":
                maps.append(tuple(int(x, 16) for x in rest))
            elif kind == "pc":
                pcs.append(int(rest[0], 16))
    if not pcs or exe is None:
        continue
    total += len(pcs)
    pie = is_pie(exe)
    rel = []
    for pc in pcs:
        for lo, hi, off in maps:
            if lo <= pc < hi:
                rel.append(pc - lo + off if pie else pc)
                break
        else:
            rel.append(None)
    frames = symbolize(exe, sorted({a for a in rel if a is not None}))
    for a in rel:
        if a is None:
            by_func[("[outside the binary]", "")] += 1
            continue
        chain = frames.get(a) or [("??", "??:0")]
        pick = next((fr for fr in chain if "/src/" in fr[1]), chain[0])
        func, loc = pick
        file = loc.split(" ")[0]
        by_func[(func, file.rsplit(":", 1)[0])] += 1
        by_line[(file, func)] += 1

if not total:
    print("pc_sample: no samples recorded", file=sys.stderr)
    sys.exit(1)


def short(path):
    i = path.find("/src/")
    return path[i + 1:] if i >= 0 else path


print(f"# {total} samples")
print(f"{'share':>7} {'samples':>8}  function  [file]")
for (func, file), n in by_func.most_common(top):
    print(f"{100.0 * n / total:6.2f}% {n:8d}  {func}  [{short(file)}]")
print()
print(f"{'share':>7} {'samples':>8}  line  (function)")
for (loc, func), n in by_line.most_common(top):
    print(f"{100.0 * n / total:6.2f}% {n:8d}  {short(loc)}  ({func})")
EOF
exit $status
