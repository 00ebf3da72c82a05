#ifndef ENODE_PERFBENCH_HOST_SPEED_H
#define ENODE_PERFBENCH_HOST_SPEED_H

/**
 * @file
 * How fast the host ran while a run was measured.
 *
 * On a shared host the speed of a core drifts with its neighbours' load
 * (turbo budget, shared caches and memory bandwidth) by a fifth or more
 * between runs minutes apart, and every compute-bound time drifts with
 * it. The probe times a fixed reference chunk on its own thread, once
 * every kPeriod for as long as a run lasts. The chunk does the same kind
 * of arithmetic as the workload's f (a 3x3 convolution with group norm
 * and ReLU, or a small tanh MLP), in the bench's own plain loops, so no
 * change to the program can move it. The probe moves to the next CPU
 * before each chunk, so it samples every core, and times each chunk in
 * its own CPU time, so the slices the program's threads take from the
 * probe's core do not count as a slower host.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <ctime>
#include <pthread.h>
#include <sched.h>
#include <thread>
#include <vector>

namespace perfbench {

/** Which reference chunk matches a workload's f. */
enum class ReferenceKind
{
    Conv, ///< 4 channels on a 10x10 map: conv3x3, group norm, ReLU
    Mlp,  ///< 16 -> 64 -> 64 -> 16 with tanh
};

/**
 * One reference chunk, 0.1-1 ms on a 2-4 GHz x86 core. `seed` (pass
 * 0 from a volatile) keeps the compiler from folding the work; the
 * result is returned so it keeps it.
 */
inline float
referenceChunk(ReferenceKind kind, float seed)
{
    if (kind == ReferenceKind::Conv) {
        constexpr int C = 4, H = 10, W = 10, kGroup = 2, kReps = 20;
        float x[C][H][W], y[C][H][W], w[C][C][3][3];
        for (int c = 0; c < C; c++)
            for (int i = 0; i < H; i++)
                for (int j = 0; j < W; j++)
                    x[c][i][j] = seed + 0.01f * static_cast<float>(
                                                    (c * 31 + i * 7 + j) % 13);
        for (int o = 0; o < C; o++)
            for (int c = 0; c < C; c++)
                for (int a = 0; a < 3; a++)
                    for (int b = 0; b < 3; b++)
                        w[o][c][a][b] =
                            0.02f * static_cast<float>((o + c * 3 + a * 5 + b) % 7) -
                            0.06f;
        float s = 0.0f;
        for (int rep = 0; rep < kReps; rep++) {
            for (int o = 0; o < C; o++)
                for (int i = 0; i < H; i++)
                    for (int j = 0; j < W; j++) {
                        float acc = 0.0f;
                        for (int c = 0; c < C; c++)
                            for (int a = -1; a <= 1; a++)
                                for (int b = -1; b <= 1; b++) {
                                    const int ii = i + a, jj = j + b;
                                    if (ii >= 0 && ii < H && jj >= 0 && jj < W)
                                        acc += w[o][c][a + 1][b + 1] *
                                               x[c][ii][jj];
                                }
                        y[o][i][j] = acc;
                    }
            for (int g = 0; g < C; g += kGroup) {
                constexpr float n = kGroup * H * W;
                float mean = 0.0f, var = 0.0f;
                for (int c = g; c < g + kGroup; c++)
                    for (int i = 0; i < H; i++)
                        for (int j = 0; j < W; j++)
                            mean += y[c][i][j];
                mean /= n;
                for (int c = g; c < g + kGroup; c++)
                    for (int i = 0; i < H; i++)
                        for (int j = 0; j < W; j++)
                            var += (y[c][i][j] - mean) * (y[c][i][j] - mean);
                const float inv = 1.0f / std::sqrt(var / n + 1e-5f);
                for (int c = g; c < g + kGroup; c++)
                    for (int i = 0; i < H; i++)
                        for (int j = 0; j < W; j++)
                            x[c][i][j] =
                                0.5f * x[c][i][j] +
                                0.01f * std::max(0.0f, (y[c][i][j] - mean) * inv);
            }
            s += x[rep % C][rep % H][rep % W];
        }
        return s;
    }

    constexpr int kIn = 16, kHidden = 64, kReps = 16;
    float w1[kHidden][kIn], w2[kHidden][kHidden], w3[kIn][kHidden], h[kIn];
    for (int i = 0; i < kHidden; i++) {
        for (int j = 0; j < kIn; j++)
            w1[i][j] = 0.01f * static_cast<float>((i * 3 + j) % 11) - 0.05f;
        for (int j = 0; j < kHidden; j++)
            w2[i][j] = 0.01f * static_cast<float>((i * 5 + j) % 11) - 0.05f;
    }
    for (int i = 0; i < kIn; i++) {
        for (int j = 0; j < kHidden; j++)
            w3[i][j] = 0.01f * static_cast<float>((i * 7 + j) % 11) - 0.05f;
        h[i] = seed + 0.1f * static_cast<float>(i);
    }
    float a[kHidden], b[kHidden];
    for (int rep = 0; rep < kReps; rep++) {
        for (int i = 0; i < kHidden; i++) {
            float acc = 0.0f;
            for (int j = 0; j < kIn; j++)
                acc += w1[i][j] * h[j];
            a[i] = std::tanh(acc);
        }
        for (int i = 0; i < kHidden; i++) {
            float acc = 0.0f;
            for (int j = 0; j < kHidden; j++)
                acc += w2[i][j] * a[j];
            b[i] = std::tanh(acc);
        }
        for (int i = 0; i < kIn; i++) {
            float acc = 0.0f;
            for (int j = 0; j < kHidden; j++)
                acc += w3[i][j] * b[j];
            h[i] = 0.9f * h[i] + 0.1f * acc;
        }
    }
    return h[0];
}

/** CPU time of the calling thread, in microseconds. */
inline double
threadCpuUs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
}

/** Times a reference chunk every kPeriod on its own thread until stopped. */
class HostSpeedProbe
{
  public:
    static constexpr auto kPeriod = std::chrono::milliseconds(20);

    explicit HostSpeedProbe(ReferenceKind kind)
        : kind_(kind), thread_([this](std::stop_token stop) { loop(stop); })
    {
    }

    /** Stop timing and wait for the thread; idempotent. */
    void
    stop()
    {
        if (thread_.joinable()) {
            thread_.request_stop();
            thread_.join();
        }
    }

    ~HostSpeedProbe() { stop(); }

    /** CPU time of each chunk, in microseconds; read after stop(). */
    const std::vector<double> &chunkUs() const { return chunkUs_; }

  private:
    void
    loop(std::stop_token stop)
    {
        // Visit every CPU this process may run on in turn, so the chunks
        // sample the cores the server's workers run on as well as the
        // idle ones the scheduler would otherwise keep the probe on.
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        std::vector<int> cpus;
        if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
            for (int c = 0; c < CPU_SETSIZE; c++)
                if (CPU_ISSET(c, &allowed))
                    cpus.push_back(c);
        volatile float seed = 0.0f, sink = 0.0f;
        auto next = std::chrono::steady_clock::now();
        for (std::size_t i = 0; !stop.stop_requested(); i++) {
            if (!cpus.empty()) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(cpus[i % cpus.size()], &one);
                pthread_setaffinity_np(pthread_self(), sizeof one, &one);
            }
            next += kPeriod;
            std::this_thread::sleep_until(next);
            const double t0 = threadCpuUs();
            sink = referenceChunk(kind_, seed);
            chunkUs_.push_back(threadCpuUs() - t0);
        }
        (void)sink;
    }

    ReferenceKind kind_;
    std::vector<double> chunkUs_;
    /** Last: it starts the loop, which uses the members above. */
    std::jthread thread_;
};

} // namespace perfbench

#endif // ENODE_PERFBENCH_HOST_SPEED_H
