/* Run one child process to its end and report its own resources.

   Peak RSS (ru_maxrss) counts the memory image a child was forked from,
   so a child forked by the (large) Python runner would report at least
   the runner's size.  The ledger forks it instead: its image is a few
   megabytes, so the figure is the child's own peak. */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

static long long now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

/* [perfbench_spawn argv err_path] -> (wall_ns, cpu_ns, maxrss_kb, exit)
   where exit is the exit code, or 128 + signal number. */
value perfbench_spawn(value v_argv, value v_err) {
  CAMLparam2(v_argv, v_err);
  CAMLlocal1(res);
  mlsize_t n = Wosize_val(v_argv), i;
  char **argv = malloc((n + 1) * sizeof(char *));
  char *err = strdup(String_val(v_err));
  if (argv == NULL || err == NULL || n == 0) caml_failwith("perfbench_spawn");
  for (i = 0; i < n; i++) argv[i] = strdup(String_val(Field(v_argv, i)));
  argv[n] = NULL;
  long long t0 = now_ns();
  pid_t pid = fork();
  if (pid == 0) {
    /* The child dies with the ledger, so a watchdog kill of the ledger
       leaves nothing running. */
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    int null = open("/dev/null", O_RDWR);
    int efd = open(err, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (null >= 0) { dup2(null, 0); dup2(null, 1); }
    if (efd >= 0) dup2(efd, 2);
    execv(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  struct rusage ru;
  memset(&ru, 0, sizeof ru);
  int got = -1;
  if (pid > 0) {
    do got = wait4(pid, &status, 0, &ru); while (got < 0 && errno == EINTR);
  }
  long long t1 = now_ns();
  for (i = 0; i < n; i++) free(argv[i]);
  free(argv);
  free(err);
  if (pid < 0 || got < 0) caml_failwith("perfbench_spawn: fork or wait failed");
  long long cpu = (long long)(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000000LL
                  + (long long)(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1000LL;
  int code = WIFEXITED(status) ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? 128 + WTERMSIG(status) : 255;
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_long(t1 - t0));
  Store_field(res, 1, Val_long(cpu));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  Store_field(res, 3, Val_int(code));
  CAMLreturn(res);
}
