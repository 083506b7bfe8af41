# Run one bench into a fresh directory and diff its report against the
# committed golden with tools/cmp_reports.py --golden (the "runs" and
# "speedups" sections must be equal). Invoked by the golden.<bench>
# ctest entries:
#
#   cmake -DBENCH=<binary> -DNAME=<bench> -DGOLDEN=<golden.json>
#         -DCMP=<cmp_reports.py> -DPYTHON=<python3> -DOUT=<dir>
#         [-DUNCHECKED=ON] -P check_golden.cmake
#
# Regenerate a golden only in a change that names the model change:
#   tools/cmp_reports.py --make-golden BENCH_<bench>.json \
#       > bench/golden/<bench>.json

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
set(ENV{MITOSIM_BENCH_DIR} ${OUT})
# -DUNCHECKED=ON runs the bench without the vmcheck battery even when
# MITOSIM_CHECK is set: ext_paper_scale's 512 GiB machine makes
# vmcheck's per-frame reachability map grow past 12 GiB of host memory.
if(UNCHECKED)
    unset(ENV{MITOSIM_CHECK})
endif()
execute_process(COMMAND ${BENCH} --jobs=2
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME} exited with ${rc}")
endif()
execute_process(COMMAND ${PYTHON} ${CMP} --golden ${GOLDEN}
    ${OUT}/BENCH_${NAME}.json RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BENCH_${NAME}.json differs from ${GOLDEN}")
endif()
