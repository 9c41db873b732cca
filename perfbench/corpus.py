"""Seeded input generation: the traces each workload hands the program.

Every workload draws its inputs from ``random.Random(seed)``; the same
seed gives byte-identical trace texts. Trace *sizes* are part of the
workload definition and never depend on the seed (serial batch cost is
superlinear in batch length), so the seed varies only text content and
order. The program receives nothing but the generated traces.
"""

import random
import string

from repro.apps.dashboard import DashboardApplication
from repro.apps.docs import DocsApplication
from repro.apps.framework import make_browser
from repro.apps.gmail import GmailApplication
from repro.apps.portal import PortalApplication
from repro.apps.sites import SitesApplication
from repro.core.recorder import WarrRecorder
from repro.workloads.sessions import (
    SimulatedUser,
    dashboard_session,
    gmail_compose_session,
    portal_authenticate_session,
    sites_edit_session,
)

SITES_START = "http://sites.example.com/edit/home"
GMAIL_START = "http://mail.example.com/"
DOCS_START = "http://docs.example.com/sheet/budget"
PORTAL_START = "http://portal.example.com/"
DASHBOARD_START = "http://dashboard.example.com/"

_LETTERS = string.ascii_lowercase


def letters(rng, length):
    """``length`` lowercase letters (names, logins, addresses)."""
    return "".join(rng.choice(_LETTERS) for _ in range(length))


def words(rng, length):
    """``length`` characters of lowercase words separated by spaces."""
    out = []
    while len(out) < length:
        if out and out[-1] != " " and rng.random() < 0.18:
            out.append(" ")
        else:
            out.append(rng.choice(_LETTERS))
    text = "".join(out[:length])
    # A trailing space is still a keystroke; keep it a letter so every
    # generated text of a given length types the same key kinds.
    return text[:-1] + rng.choice(_LETTERS) if text.endswith(" ") else text


# -- browser factories (module level: worker processes resolve them) ----------


def sites_live():
    """A live Sites environment (server + page scripts)."""
    return make_browser([SitesApplication], developer_mode=True)[0]


def sites_hermetic():
    """Sites page scripts only; every response comes from a WT1 tape."""
    return make_browser([SitesApplication], developer_mode=True,
                        client_only=True)[0]


FARM_APPS = [GmailApplication, DocsApplication, DashboardApplication,
             PortalApplication, SitesApplication]


def farm_browser():
    """Every farm application, with GMail's compose view rendered once.

    Rendering compose before the trace starts advances GMail's id
    counter, so every id a GMail trace recorded is stale on replay and
    XPath relaxation has to recover each locator (paper §IV-C).
    """
    browser, _ = make_browser(FARM_APPS, developer_mode=True)
    browser.new_tab(GMAIL_START + "compose")
    return browser


def recorded_apps_browser():
    """Every application the ``record`` workload records, live."""
    return make_browser([GmailApplication, SitesApplication, DocsApplication],
                        developer_mode=True)[0]


# -- sessions -----------------------------------------------------------------


def docs_session(browser, rng, cells=2):
    """Spreadsheet edits: double-click a cell, type, then two drags."""
    tab = browser.new_tab(DOCS_START)
    user = SimulatedUser(tab)
    for row in range(2, 2 + cells):
        user.double_click('//div[@id="cell_%d_%d"]' % (row, rng.randrange(2)))
        user.type_text(words(rng, 8))
    user.drag('//div[@id="cell_0_0"]', 40, 20)
    user.drag('//div[@id="chart"]', 30, 45)
    user.click('//div[text()="Save"]')
    tab.wait_until_idle()
    return user


def _record(apps, start_url, label, drive):
    """Record one live session; returns its WarrTrace."""
    browser, _ = make_browser(apps)
    recorder = WarrRecorder().attach(browser)
    recorder.begin(start_url, label=label)
    drive(browser)
    recorder.detach()
    return recorder.trace


def record_sites(label, text):
    return _record([SitesApplication], SITES_START, label,
                   lambda b: sites_edit_session(b, text=text))


def record_gmail(label, rng, body_length):
    to = "%s@example.com" % letters(rng, 6)
    subject = words(rng, 10)
    body = words(rng, body_length)
    return _record([GmailApplication], GMAIL_START, label,
                   lambda b: gmail_compose_session(b, to=to, subject=subject,
                                                   body=body))


def record_docs(label, rng):
    return _record([DocsApplication], DOCS_START, label,
                   lambda b: docs_session(b, rng))


def record_portal(label, rng):
    login = letters(rng, 6)
    password = letters(rng, 8)
    return _record([PortalApplication], PORTAL_START, label,
                   lambda b: portal_authenticate_session(
                       b, login=login, password=password))


def record_dashboard(label, rng):
    note = words(rng, 16)
    return _record([DashboardApplication], DASHBOARD_START, label,
                   lambda b: dashboard_session(b, note=note))


# -- workload corpora ---------------------------------------------------------

#: sites-edit: typed characters per trace (the multiset is fixed; the seed
#: shuffles it). 4 x 9 traces, 7,200 keystrokes per batch.
SITES_LENGTHS = (40, 80, 120, 160, 200, 240, 280, 320, 360) * 4


def sites_edit_corpus(seed):
    """(label, trace) pairs for one ``sites-edit`` batch."""
    rng = random.Random("sites-edit:%d" % seed)
    lengths = list(SITES_LENGTHS)
    rng.shuffle(lengths)
    return [record_sites("sites-%02d" % index, words(rng, length))
            for index, length in enumerate(lengths)]


#: app-farm: distinct recorded traces per kind, and the batch size.
FARM_DISTINCT_PER_KIND = 4
FARM_BATCH = 240
#: GMail body lengths and short Sites edits (fixed per distinct slot).
FARM_GMAIL_BODY = (24, 32, 40, 48)
FARM_SITES_TEXT = (12, 16, 20, 24)


def app_farm_distinct(seed):
    """The distinct recorded traces of the ``app-farm`` corpus."""
    rng = random.Random("app-farm:%d" % seed)
    traces = []
    for slot in range(FARM_DISTINCT_PER_KIND):
        traces.append(record_gmail("gmail-%d" % slot, rng,
                                   FARM_GMAIL_BODY[slot]))
        traces.append(record_docs("docs-%d" % slot, rng))
        traces.append(record_dashboard("dashboard-%d" % slot, rng))
        traces.append(record_portal("portal-%d" % slot, rng))
        traces.append(record_sites("sites-%d" % slot,
                                   words(rng, FARM_SITES_TEXT[slot])))
    return traces


def app_farm_batch(seed, distinct):
    """``FARM_BATCH`` (label, trace) slots drawn evenly from ``distinct``.

    Every distinct trace appears the same number of times, so the
    batch's command count is fixed by the workload; the seed decides
    the order.
    """
    rng = random.Random("app-farm-order:%d" % seed)
    slots = [distinct[index % len(distinct)] for index in range(FARM_BATCH)]
    rng.shuffle(slots)
    labels = ["%s-%03d" % (trace.label, index)
              for index, trace in enumerate(slots)]
    return labels, slots
