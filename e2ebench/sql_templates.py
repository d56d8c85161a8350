"""Parameterised SQL templates for the ``sql-hot`` workload.

Each template is an inner equi-join over one of three catalogs and joins
3-10 tables.  ``{y}``/``{n}`` are integer and ``{s}``/``{t}`` string literal
slots; the request stream fills them per request.  The parser's filter
selectivity ignores the literal value, so every statement of a template maps
to one structural signature and one cached plan.

About a third of the templates carry one many-to-many (non-key) join edge,
marked ``m2m``: two foreign-key columns that reference the same parent
(``mc.movie_id = mk.movie_id``, ``s.s_nationkey = c.c_nationkey``).  On
those edges the estimated and the executed intermediate sizes diverge.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

__all__ = ["SQLTemplate", "TEMPLATES", "CATALOG_SCALES"]


class SQLTemplate(NamedTuple):
    name: str
    catalog: str
    m2m: bool
    sql: str


#: Dataset scale per catalog: base-table rows are multiplied by this before
#: the row cap (``MAX_TABLE_ROWS`` in ``workloads.py``) is applied.  The
#: JOB-like templates filter most of their tables, so the IMDB catalog gets
#: three times the scale to execute on inputs of the same order as the
#: TPC-H (SF 5) and MusicBrainz templates.
CATALOG_SCALES = {"imdb": 3e-3, "tpch": 1e-3, "musicbrainz": 1e-3}


def _t(name: str, catalog: str, sql: str, m2m: bool = False) -> SQLTemplate:
    return SQLTemplate(name, catalog, m2m, " ".join(sql.split()))


TEMPLATES: Tuple[SQLTemplate, ...] = (
    # ------------------------------------------------------------ IMDB (JOB)
    _t("imdb_kw3", "imdb", """
        SELECT MIN(t.title) FROM title t, movie_keyword mk, keyword k
        WHERE mk.movie_id = t.id AND mk.keyword_id = k.id
          AND k.keyword = '{s}' AND t.production_year > {y}"""),
    _t("imdb_comp4", "imdb", """
        SELECT MIN(t.title) FROM title t, movie_companies mc, company_name cn,
          company_type ct
        WHERE mc.movie_id = t.id AND mc.company_id = cn.id
          AND mc.company_type_id = ct.id AND cn.country_code = '{s}'
          AND ct.kind = '{t}'"""),
    _t("imdb_info5", "imdb", """
        SELECT MIN(mi.info) FROM title t, movie_info mi, info_type it,
          kind_type kt, movie_info_idx mi_idx
        WHERE mi.movie_id = t.id AND mi.info_type_id = it.id
          AND t.kind_id = kt.id AND mi_idx.movie_id = t.id
          AND it.info = '{s}' AND kt.kind = '{t}' AND t.production_year > {y}"""),
    _t("imdb_cast5", "imdb", """
        SELECT MIN(n.name) FROM cast_info ci, name n, char_name chn,
          role_type rt, title t
        WHERE ci.person_id = n.id AND ci.person_role_id = chn.id
          AND ci.role_id = rt.id AND ci.movie_id = t.id
          AND rt.role = '{s}' AND n.gender = '{t}' AND ci.note like '%{s}%'"""),
    _t("imdb_link6", "imdb", """
        SELECT MIN(t.title) FROM title t, movie_link ml, link_type lt,
          movie_keyword mk, keyword k, kind_type kt
        WHERE ml.movie_id = t.id AND ml.link_type_id = lt.id
          AND mk.movie_id = t.id AND mk.keyword_id = k.id
          AND t.kind_id = kt.id AND lt.link like '%{s}%'
          AND t.production_year < {y}"""),
    _t("imdb_person6", "imdb", """
        SELECT MIN(n.name) FROM name n, person_info pi, info_type it,
          aka_name an, cast_info ci, role_type rt
        WHERE pi.person_id = n.id AND pi.info_type_id = it.id
          AND an.person_id = n.id AND ci.person_id = n.id
          AND ci.role_id = rt.id AND it.info = '{s}'
          AND ci.note like '%{t}%' AND n.name_pcode_cf < '{s}'"""),
    _t("imdb_cc7", "imdb", """
        SELECT MIN(t.title) FROM complete_cast cc, comp_cast_type cct1,
          comp_cast_type cct2, title t, kind_type kt, movie_keyword mk, keyword k
        WHERE cc.subject_id = cct1.id AND cc.status_id = cct2.id
          AND cc.movie_id = t.id AND t.kind_id = kt.id
          AND mk.movie_id = t.id AND mk.keyword_id = k.id
          AND cct1.kind = '{s}' AND k.keyword like '%{t}%'"""),
    _t("imdb_full8", "imdb", """
        SELECT MIN(t.title) FROM title t, movie_companies mc, company_name cn,
          company_type ct, movie_info_idx mi_idx, info_type it, kind_type kt,
          aka_title at
        WHERE mc.movie_id = t.id AND mc.company_id = cn.id
          AND mc.company_type_id = ct.id AND mi_idx.movie_id = t.id
          AND mi_idx.info_type_id = it.id AND t.kind_id = kt.id
          AND at.movie_id = t.id AND cn.country_code = '{s}'
          AND mi_idx.info > '{n}' AND t.production_year > {y}"""),
    _t("imdb_m2m_mcmk4", "imdb", """
        SELECT MIN(t.title) FROM title t, movie_companies mc, movie_keyword mk,
          keyword k
        WHERE mc.movie_id = t.id AND mk.keyword_id = k.id
          AND mc.movie_id = mk.movie_id AND k.keyword = '{s}'
          AND mc.note like '%{t}%'""", m2m=True),
    _t("imdb_m2m_info6", "imdb", """
        SELECT MIN(mi.info) FROM title t, movie_info mi, info_type it1,
          movie_info_idx mi_idx, info_type it2, kind_type kt
        WHERE mi.movie_id = t.id AND mi.info_type_id = it1.id
          AND mi_idx.info_type_id = it2.id AND mi.movie_id = mi_idx.movie_id
          AND t.kind_id = kt.id AND it1.info = '{s}' AND it2.info = '{t}'
          AND mi.info like '%{s}%'""", m2m=True),
    _t("imdb_m2m_cast7", "imdb", """
        SELECT MIN(n.name) FROM cast_info ci, name n, role_type rt,
          movie_companies mc, company_name cn, title t, kind_type kt
        WHERE ci.person_id = n.id AND ci.role_id = rt.id
          AND ci.movie_id = mc.movie_id AND mc.company_id = cn.id
          AND mc.movie_id = t.id AND t.kind_id = kt.id
          AND rt.role = '{s}' AND ci.note like '%{t}%'
          AND cn.country_code = '{s}' AND t.production_year > {y}""", m2m=True),
    _t("imdb_m2m_kw9", "imdb", """
        SELECT MIN(t.title) FROM title t, kind_type kt, movie_keyword mk,
          keyword k, movie_companies mc, company_name cn, company_type ct,
          movie_link ml, link_type lt
        WHERE t.kind_id = kt.id AND mk.movie_id = t.id AND mk.keyword_id = k.id
          AND mc.company_id = cn.id AND mc.company_type_id = ct.id
          AND mc.movie_id = mk.movie_id AND ml.movie_id = t.id
          AND ml.link_type_id = lt.id AND k.keyword like '%{s}%'
          AND cn.country_code = '{t}' AND t.production_year > {y}""", m2m=True),
    # -------------------------------------------------------------- TPC-H
    _t("tpch_q3", "tpch", """
        SELECT MIN(o.o_orderdate) FROM customer c, orders o, lineitem l
        WHERE o.o_custkey = c.c_custkey AND l.l_orderkey = o.o_orderkey
          AND c.c_mktsegment = '{s}' AND o.o_orderdate < '{y}'
          AND l.l_shipdate > '{y}'"""),
    _t("tpch_q10", "tpch", """
        SELECT MIN(c.c_name) FROM customer c, orders o, lineitem l, nation n
        WHERE o.o_custkey = c.c_custkey AND l.l_orderkey = o.o_orderkey
          AND c.c_nationkey = n.n_nationkey AND l.l_returnflag = '{s}'
          AND o.o_orderdate >= '{y}'"""),
    _t("tpch_q2", "tpch", """
        SELECT MIN(s.s_acctbal) FROM part p, supplier s, partsupp ps,
          nation n, region r
        WHERE ps.ps_partkey = p.p_partkey AND ps.ps_suppkey = s.s_suppkey
          AND s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey
          AND p.p_size = {n} AND p.p_type like '%{s}' AND r.r_name = '{t}'"""),
    _t("tpch_q21", "tpch", """
        SELECT MIN(s.s_name) FROM supplier s, lineitem l, orders o, nation n
        WHERE l.l_suppkey = s.s_suppkey AND o.o_orderkey = l.l_orderkey
          AND s.s_nationkey = n.n_nationkey AND o.o_orderstatus = '{s}'
          AND n.n_name = '{t}'"""),
    _t("tpch_q18", "tpch", """
        SELECT MIN(c.c_name) FROM customer c, orders o, lineitem l, part p
        WHERE o.o_custkey = c.c_custkey AND l.l_orderkey = o.o_orderkey
          AND l.l_partkey = p.p_partkey AND l.l_quantity > {n}
          AND p.p_brand = '{s}'"""),
    _t("tpch_q7", "tpch", """
        SELECT MIN(l.l_shipdate) FROM supplier s, lineitem l, orders o,
          customer c, nation n1, nation n2
        WHERE s.s_suppkey = l.l_suppkey AND o.o_orderkey = l.l_orderkey
          AND c.c_custkey = o.o_custkey AND s.s_nationkey = n1.n_nationkey
          AND c.c_nationkey = n2.n_nationkey AND n1.n_name = '{s}'
          AND n2.n_name = '{t}' AND l.l_shipdate > '{y}'"""),
    _t("tpch_q8", "tpch", """
        SELECT MIN(o.o_orderdate) FROM part p, supplier s, lineitem l,
          orders o, customer c, nation n1, nation n2, region r
        WHERE p.p_partkey = l.l_partkey AND s.s_suppkey = l.l_suppkey
          AND l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey
          AND c.c_nationkey = n1.n_nationkey AND n1.n_regionkey = r.r_regionkey
          AND s.s_nationkey = n2.n_nationkey AND r.r_name = '{s}'
          AND p.p_type = '{t}' AND o.o_orderdate > '{y}'"""),
    _t("tpch_m2m_q5", "tpch", """
        SELECT MIN(n.n_name) FROM customer c, orders o, supplier s,
          nation n, region r
        WHERE c.c_custkey = o.o_custkey AND c.c_nationkey = s.s_nationkey
          AND s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey
          AND r.r_name = '{s}' AND o.o_orderdate >= '{y}'""", m2m=True),
    _t("tpch_m2m_q9", "tpch", """
        SELECT MIN(n.n_name) FROM part p, lineitem l, partsupp ps,
          orders o, supplier s, nation n
        WHERE p.p_partkey = l.l_partkey AND ps.ps_partkey = l.l_partkey
          AND o.o_orderkey = l.l_orderkey AND ps.ps_suppkey = s.s_suppkey
          AND s.s_nationkey = n.n_nationkey AND p.p_name like '%{s}%'""",
       m2m=True),
    _t("tpch_m2m_supcust4", "tpch", """
        SELECT MIN(c.c_name) FROM supplier s, nation n, customer c, orders o
        WHERE s.s_nationkey = n.n_nationkey AND o.o_custkey = c.c_custkey
          AND s.s_nationkey = c.c_nationkey AND c.c_mktsegment = '{s}'
          AND s.s_acctbal > {n}""", m2m=True),
    _t("tpch_m2m_ps4", "tpch", """
        SELECT MIN(l.l_extendedprice) FROM partsupp ps, lineitem l, part p,
          orders o
        WHERE ps.ps_partkey = l.l_partkey AND p.p_partkey = ps.ps_partkey
          AND o.o_orderkey = l.l_orderkey AND p.p_container = '{s}'
          AND ps.ps_availqty < {n}""", m2m=True),
    # -------------------------------------------------------- MusicBrainz
    _t("mb_artist3", "musicbrainz", """
        SELECT MIN(a.name) FROM artist a, area ar, gender g
        WHERE a.area = ar.id AND a.gender = g.id AND g.name = '{s}'"""),
    _t("mb_release4", "musicbrainz", """
        SELECT MIN(r.name) FROM release r, release_group rg,
          release_status rs, language lang
        WHERE r.release_group = rg.id AND r.status = rs.id
          AND r.language = lang.id AND rs.name = '{s}'
          AND rg.name like '%{t}%'"""),
    _t("mb_track5", "musicbrainz", """
        SELECT MIN(rec.name) FROM track tr, medium m, release r,
          recording rec, medium_format mf
        WHERE tr.medium = m.id AND m.release = r.id AND tr.recording = rec.id
          AND m.format = mf.id AND mf.name = '{s}' AND rec.length > {n}"""),
    _t("mb_place4", "musicbrainz", """
        SELECT MIN(p.name) FROM place p, area ar, area_type aty, place_type pt
        WHERE p.area = ar.id AND ar.type = aty.id AND p.type = pt.id
          AND pt.name = '{s}' AND ar.name like '%{t}%'"""),
    _t("mb_edit5", "musicbrainz", """
        SELECT MIN(e.id) FROM editor ed, edit e, edit_artist ea, artist a,
          artist_type aty
        WHERE e.editor = ed.id AND ea.edit = e.id AND ea.artist = a.id
          AND a.type = aty.id AND aty.name = '{s}' AND e.open_time > '{y}'"""),
    _t("mb_tag5", "musicbrainz", """
        SELECT MIN(rec.name) FROM recording rec, recording_tag rt, tag tg,
          recording_meta rm, isrc i
        WHERE rt.recording = rec.id AND rt.tag = tg.id AND rm.id = rec.id
          AND i.recording = rec.id AND tg.name = '{s}'"""),
    _t("mb_credit6", "musicbrainz", """
        SELECT MIN(a.name) FROM artist_credit ac, artist_credit_name acn,
          artist a, release r, release_group rg,
          release_group_primary_type rgt
        WHERE acn.artist_credit = ac.id AND acn.artist = a.id
          AND r.artist_credit = ac.id AND r.release_group = rg.id
          AND rg.type = rgt.id AND rgt.name = '{s}' AND a.name like '%{t}%'"""),
    _t("mb_label6", "musicbrainz", """
        SELECT MIN(l.name) FROM label l, release_label rl, release r,
          area ar, label_type lt, release_country rc
        WHERE rl.label = l.id AND rl.release = r.id AND l.area = ar.id
          AND l.type = lt.id AND rc.release = r.id AND lt.name = '{s}'
          AND rc.date_year > {y}"""),
    _t("mb_work7", "musicbrainz", """
        SELECT MIN(w.name) FROM work w, work_type wt, l_recording_work lrw,
          recording rec, link lk, link_type lkt, iswc isw
        WHERE w.type = wt.id AND lrw.entity1 = w.id AND lrw.entity0 = rec.id
          AND lrw.link = lk.id AND lk.link_type = lkt.id AND isw.work = w.id
          AND wt.name = '{s}' AND lkt.name = '{t}' AND rec.length > {n}"""),
    _t("mb_full10", "musicbrainz", """
        SELECT MIN(r.name) FROM track tr, medium m, release r,
          release_group rg, artist_credit ac, recording rec,
          release_status rs, medium_format mf, language lang, script sc
        WHERE tr.medium = m.id AND m.release = r.id AND r.release_group = rg.id
          AND rg.artist_credit = ac.id AND tr.recording = rec.id
          AND r.status = rs.id AND m.format = mf.id AND r.language = lang.id
          AND r.script = sc.id AND rs.name = '{s}' AND lang.name = '{t}'
          AND rec.length < {n}"""),
    _t("mb_m2m_credit5", "musicbrainz", """
        SELECT MIN(a.name) FROM release r, release_group rg, artist_credit ac,
          artist_credit_name acn, artist a
        WHERE r.artist_credit = rg.artist_credit AND rg.artist_credit = ac.id
          AND acn.artist_credit = ac.id AND acn.artist = a.id
          AND rg.name like '%{s}%' AND r.name like '%{t}%'""", m2m=True),
    _t("mb_m2m_tag6", "musicbrainz", """
        SELECT MIN(tg.name) FROM artist_tag atg, tag tg, release_group_tag rgt,
          release_group rg, artist a, release_group_primary_type rgpt
        WHERE atg.tag = tg.id AND rgt.release_group = rg.id
          AND atg.artist = a.id AND rg.type = rgpt.id AND atg.tag = rgt.tag
          AND rgpt.name = '{s}' AND tg.name like '%{t}%'""", m2m=True),
    _t("mb_m2m_rec7", "musicbrainz", """
        SELECT MIN(rec.name) FROM track tr, recording rec, isrc i,
          l_artist_recording lar, artist a, gender g, medium m
        WHERE tr.recording = rec.id AND tr.recording = i.recording
          AND lar.entity1 = rec.id AND lar.entity0 = a.id AND a.gender = g.id
          AND tr.medium = m.id AND g.name = '{s}' AND m.position > {n}""",
       m2m=True),
    _t("mb_m2m_release8", "musicbrainz", """
        SELECT MIN(l.name) FROM release r, medium m, release_label rl,
          label l, release_country rc, area ar, release_status rs,
          release_packaging rp
        WHERE m.release = r.id AND m.release = rl.release AND rl.label = l.id
          AND rc.release = r.id AND rc.country = ar.id AND r.status = rs.id
          AND r.packaging = rp.id AND rs.name = '{s}'
          AND rc.date_year < {y}""", m2m=True),
)
