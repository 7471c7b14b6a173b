// Package tpcds provides the TPC-DS substrate of the evaluation (§7.2): a
// compact rendition of the benchmark's 24-table retail schema, a scaled
// synthetic data generator with foreign-key consistency, and all 99
// queries expressed as plan builders.
//
// The queries preserve what matters for computation reuse: TPC-DS's real
// common subexpressions. Dozens of queries share the same fact⋈date_dim
// (⋈item/customer) cores, which is precisely the overlap CloudViews mines.
// Selectivities and constants are simplified; column sets are trimmed to
// the ones the queries touch. Absolute data volume comes from a scale
// factor, defaulting far below 1 TB so the whole benchmark runs in seconds
// on the simulator (substitution documented in DESIGN.md).
package tpcds

import (
	"cloudviews/internal/data"
)

// TableDef describes one schema table and its scaled cardinality.
type TableDef struct {
	Name   string
	Schema data.Schema
	// BaseRows is the row count at Scale = 1.0; dimensions scale with the
	// square root of the scale factor (as TPC-DS dimensions grow sublinearly).
	BaseRows  int
	Dimension bool
	// Partitions is the table's physical partition count.
	Partitions int
}

func ints(names ...string) data.Schema {
	s := make(data.Schema, len(names))
	for i, n := range names {
		s[i] = data.Column{Name: n, Kind: data.KindInt}
	}
	return s
}

func withFloat(s data.Schema, names ...string) data.Schema {
	for _, n := range names {
		s = append(s, data.Column{Name: n, Kind: data.KindFloat})
	}
	return s
}

func withString(s data.Schema, names ...string) data.Schema {
	for _, n := range names {
		s = append(s, data.Column{Name: n, Kind: data.KindString})
	}
	return s
}

// Tables returns the 24 TPC-DS tables with trimmed schemas. Column order
// is part of the public contract: query builders index columns by position.
func Tables() []TableDef {
	return []TableDef{
		// Fact tables (7).
		{Name: "store_sales", BaseRows: 4000, Partitions: 8,
			Schema: withFloat(ints("ss_sold_date_sk", "ss_item_sk", "ss_customer_sk", "ss_store_sk", "ss_promo_sk", "ss_quantity"),
				"ss_sales_price", "ss_ext_sales_price", "ss_net_profit")},
		{Name: "store_returns", BaseRows: 400, Partitions: 4,
			Schema: withFloat(ints("sr_returned_date_sk", "sr_item_sk", "sr_customer_sk", "sr_store_sk", "sr_reason_sk"),
				"sr_return_amt", "sr_net_loss")},
		{Name: "catalog_sales", BaseRows: 2800, Partitions: 8,
			Schema: withFloat(ints("cs_sold_date_sk", "cs_item_sk", "cs_bill_customer_sk", "cs_call_center_sk", "cs_promo_sk", "cs_quantity"),
				"cs_sales_price", "cs_ext_sales_price", "cs_net_profit")},
		{Name: "catalog_returns", BaseRows: 280, Partitions: 4,
			Schema: withFloat(ints("cr_returned_date_sk", "cr_item_sk", "cr_refunded_customer_sk", "cr_call_center_sk", "cr_reason_sk"),
				"cr_return_amount", "cr_net_loss")},
		{Name: "web_sales", BaseRows: 1400, Partitions: 8,
			Schema: withFloat(ints("ws_sold_date_sk", "ws_item_sk", "ws_bill_customer_sk", "ws_web_site_sk", "ws_promo_sk", "ws_quantity"),
				"ws_sales_price", "ws_ext_sales_price", "ws_net_profit")},
		{Name: "web_returns", BaseRows: 140, Partitions: 4,
			Schema: withFloat(ints("wr_returned_date_sk", "wr_item_sk", "wr_refunded_customer_sk", "wr_web_page_sk", "wr_reason_sk"),
				"wr_return_amt", "wr_net_loss")},
		{Name: "inventory", BaseRows: 2000, Partitions: 8,
			Schema: ints("inv_date_sk", "inv_item_sk", "inv_warehouse_sk", "inv_quantity_on_hand")},

		// Dimension tables (17).
		{Name: "date_dim", BaseRows: 1461, Dimension: true, Partitions: 2,
			Schema: ints("d_date_sk", "d_year", "d_moy", "d_dom", "d_qoy", "d_dow")},
		{Name: "time_dim", BaseRows: 288, Dimension: true, Partitions: 1,
			Schema: ints("t_time_sk", "t_hour", "t_minute", "t_shift")},
		{Name: "item", BaseRows: 300, Dimension: true, Partitions: 2,
			Schema: withFloat(withString(ints("i_item_sk", "i_brand_id", "i_class_id", "i_category_id", "i_manufact_id"),
				"i_category", "i_brand"), "i_current_price")},
		{Name: "customer", BaseRows: 500, Dimension: true, Partitions: 2,
			Schema: withString(ints("c_customer_sk", "c_current_addr_sk", "c_current_cdemo_sk", "c_current_hdemo_sk", "c_birth_year"),
				"c_last_name", "c_preferred_cust_flag")},
		{Name: "customer_address", BaseRows: 250, Dimension: true, Partitions: 2,
			Schema: withString(ints("ca_address_sk", "ca_gmt_offset"), "ca_state", "ca_county", "ca_city")},
		{Name: "customer_demographics", BaseRows: 200, Dimension: true, Partitions: 2,
			Schema: withString(ints("cd_demo_sk", "cd_dep_count"), "cd_gender", "cd_marital_status", "cd_education_status")},
		{Name: "household_demographics", BaseRows: 72, Dimension: true, Partitions: 1,
			Schema: withString(ints("hd_demo_sk", "hd_income_band_sk", "hd_dep_count", "hd_vehicle_count"), "hd_buy_potential")},
		{Name: "income_band", BaseRows: 20, Dimension: true, Partitions: 1,
			Schema: ints("ib_income_band_sk", "ib_lower_bound", "ib_upper_bound")},
		{Name: "store", BaseRows: 12, Dimension: true, Partitions: 1,
			Schema: withString(ints("s_store_sk", "s_number_employees", "s_floor_space"), "s_state", "s_county", "s_store_name")},
		{Name: "call_center", BaseRows: 6, Dimension: true, Partitions: 1,
			Schema: withString(ints("cc_call_center_sk", "cc_employees"), "cc_name", "cc_manager")},
		{Name: "catalog_page", BaseRows: 60, Dimension: true, Partitions: 1,
			Schema: withString(ints("cp_catalog_page_sk", "cp_catalog_number"), "cp_department")},
		{Name: "web_site", BaseRows: 10, Dimension: true, Partitions: 1,
			Schema: withString(ints("web_site_sk", "web_open_date_sk"), "web_name", "web_manager")},
		{Name: "web_page", BaseRows: 20, Dimension: true, Partitions: 1,
			Schema: withString(ints("wp_web_page_sk", "wp_char_count", "wp_link_count"), "wp_type")},
		{Name: "warehouse", BaseRows: 5, Dimension: true, Partitions: 1,
			Schema: withString(ints("w_warehouse_sk", "w_warehouse_sq_ft"), "w_warehouse_name", "w_state")},
		{Name: "promotion", BaseRows: 30, Dimension: true, Partitions: 1,
			Schema: withString(ints("p_promo_sk", "p_response_target"), "p_channel_email", "p_promo_name")},
		{Name: "reason", BaseRows: 35, Dimension: true, Partitions: 1,
			Schema: withString(ints("r_reason_sk"), "r_reason_desc")},
		{Name: "ship_mode", BaseRows: 20, Dimension: true, Partitions: 1,
			Schema: withString(ints("sm_ship_mode_sk"), "sm_type", "sm_carrier")},
	}
}
