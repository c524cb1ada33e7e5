#!/usr/bin/env python3
"""View age on the shipped republisher's path, end to end over the binaries.

    go build -o BIN ./cmd/...          # in the checkout to measure
    python3 viewage.py BIN [--samples 40] [--seed 1] [--port 18480]
                           [--stop 20] [--heal-samples 10]

Starts gridrm-agents (one site, 4 hosts), a site gateway hosting the
directory, and `gridrm-gateway -role=republisher` with nothing set but its
name, directory and a 1 s -repub-refresh (so it owns the site at once): the
republisher's feed and scrape cadence are the binary's defaults. Each
sample waits a seeded random 0-6 s (so samples fall at every phase of a 5 s
scrape cycle), asks the site for a real-time Processor harvest, and then
polls the republisher's /query for that site every 5 ms until its
repub-view status says the view changed at or after the harvest request.
The sample is that wait. Prints the percentiles as a markdown row.

Then the heal: the site gateway is stopped (SIGSTOP) for --stop seconds,
past the feed's 15 s idle timeout, and continued (SIGCONT). A harvest is
asked at once, and its wait is the first heal sample; the script also
reports how long after SIGCONT the republisher's /status shows the feed as
a stream again, and the republisher's counters moved across the stop.
--heal-samples more samples (the first included) follow as above.
"""
import argparse, calendar, json, os, random, signal, subprocess, sys, tempfile, time, urllib.request


def post(url, body):
    req = urllib.request.Request(url, data=json.dumps(body).encode(), headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as r:
        return json.load(r)


def rfc3339_ns(s):
    """Unix nanoseconds of an RFC 3339 timestamp with up to 9 fraction digits."""
    date, _, rest = s.partition("T")
    zone_at = max(rest.rfind("+"), rest.rfind("-"), rest.rfind("Z"))
    clock, zone = rest[:zone_at], rest[zone_at:]
    whole, _, frac = clock.partition(".")
    y, mo, d = map(int, date.split("-"))
    h, mi, sec = map(int, whole.split(":"))
    off = 0
    if zone not in ("Z", ""):
        sign = 1 if zone[0] == "+" else -1
        zh, zm = map(int, zone[1:].split(":"))
        off = sign * (zh * 3600 + zm * 60)
    secs = calendar.timegm((y, mo, d, h, mi, sec, 0, 0, 0)) - off
    return secs * 10**9 + int((frac + "000000000")[:9])


def view_changed_ns(repub, site):
    resp = post(repub + "/query", {"sql": "SELECT HostName FROM Processor", "site": site})
    for st in resp.get("sources") or []:
        if st.get("Source") == "repub-view:" + site:
            return rfc3339_ns(st["HarvestedAt"])
    return 0


def status(repub):
    with urllib.request.urlopen(repub + "/status", timeout=10) as r:
        return json.load(r)


def sample(site_url, repub_url, site):
    """Asks the site for a harvest and waits for the republisher's view to
    change at or after it; returns the wait in ms."""
    asked = time.time_ns()
    post(site_url + "/query", {"sql": "SELECT HostName, LoadLast1Min FROM Processor", "mode": "real-time"})
    while view_changed_ns(repub_url, site) < asked:
        if time.time_ns() - asked > 30 * 10**9:
            sys.exit("the view did not change within 30 s of a harvest")
        time.sleep(0.005)
    return (time.time_ns() - asked) / 1e6


def row(label, waits):
    waits = sorted(waits)
    pct = lambda p: waits[min(len(waits) - 1, int(p * len(waits)))]
    print("| %s | %d | %.0f | %.0f | %.0f |" % (label, len(waits), pct(0.5), pct(0.95), waits[-1]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bin")
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--port", type=int, default=18480)
    ap.add_argument("--stop", type=float, default=20)
    ap.add_argument("--heal-samples", type=int, default=10)
    a = ap.parse_args()
    rng = random.Random(a.seed)
    work = tempfile.mkdtemp(prefix="viewage-")
    manifest = os.path.join(work, "site.json")
    site, gw, rp = "siteA", "127.0.0.1:%d" % a.port, "127.0.0.1:%d" % (a.port + 1)
    log = open(os.path.join(work, "log"), "w")
    procs = []
    try:
        procs.append(subprocess.Popen([os.path.join(a.bin, "gridrm-agents"), "-site", site, "-hosts", "4", "-manifest", manifest], stdout=log, stderr=log))
        while not os.path.exists(manifest):
            time.sleep(0.05)
        time.sleep(0.5)
        procs.append(subprocess.Popen([os.path.join(a.bin, "gridrm-gateway"), "-manifest", manifest, "-listen", gw, "-host-directory", "-refresh", "1s"], stdout=log, stderr=log))
        time.sleep(1.5)
        procs.append(subprocess.Popen([os.path.join(a.bin, "gridrm-gateway"), "-role=republisher", "-name", "repub-a", "-listen", rp,
                                       "-directory", "http://" + gw, "-repub-refresh", "1s"], stdout=log, stderr=log))
        site_url, repub_url = "http://" + gw, "http://" + rp
        deadline = time.time() + 30
        while time.time() < deadline:
            try:
                if view_changed_ns(repub_url, site):
                    break
            except Exception:
                pass
            time.sleep(0.1)
        else:
            sys.exit("the republisher never built a view of " + site)
        waits = []
        for _ in range(a.samples):
            time.sleep(rng.uniform(0, 6))
            waits.append(sample(site_url, repub_url, site))
        print("| phase | samples | p50 ms | p95 ms | max ms |")
        print("|---|---|---|---|---|")
        row("steady", waits)

        before = status(repub_url)["stats"]
        site_gw = procs[1]
        site_gw.send_signal(signal.SIGSTOP)
        time.sleep(a.stop)
        site_gw.send_signal(signal.SIGCONT)
        cont = time.time_ns()
        heal = [sample(site_url, repub_url, site)]
        while not any(f.get("mode") == "stream" for f in status(repub_url).get("feeds") or []):
            if time.time_ns() - cont > 60 * 10**9:
                sys.exit("the feed was no stream within 60 s of SIGCONT")
            time.sleep(0.005)
        streaming = (time.time_ns() - cont) / 1e6
        for _ in range(a.heal_samples - 1):
            time.sleep(rng.uniform(0, 6))
            heal.append(sample(site_url, repub_url, site))
        row("after SIGCONT (first: %.0f ms)" % heal[0], heal)
        after = status(repub_url)["stats"]
        print()
        print("stream again %.0f ms after SIGCONT" % streaming)
        print("counters across the stop: " + ", ".join("%s +%d" % (k, after[k] - before.get(k, 0))
                                                      for k in sorted(after) if k != "storedRows" and after[k] != before.get(k, 0)))
    finally:
        for p in reversed(procs):
            p.send_signal(signal.SIGTERM)
        for p in procs:
            try:
                p.wait(timeout=15)
            except subprocess.TimeoutExpired:
                p.kill()


if __name__ == "__main__":
    main()
